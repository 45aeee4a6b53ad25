package stream_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adassure/internal/stream"
)

// TestSessionSoakConcurrentStats soaks one session with the equivalent of
// a multi-minute drive replayed at high acceleration while two goroutines
// hammer Stats() the whole time. Run under -race this proves the concurrent-read
// contract; the ReadMemStats ceiling proves memory stays bounded no
// matter how long the stream runs (the "unbounded stream, bounded
// memory" half of the package contract).
func TestSessionSoakConcurrentStats(t *testing.T) {
	if testing.Short() {
		t.Skip("soak ingests a long accelerated session")
	}
	const frames = 60_000 // 50 simulated minutes at 20 Hz

	var heartbeats atomic.Int64
	s, err := stream.New(stream.Config{
		Heartbeat: 1000,
		Sink: func(e stream.Event) {
			if e.Kind == stream.EventHeartbeat {
				heartbeats.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var polls atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.Stats()
				if st.Frames < last {
					t.Errorf("frame counter regressed: %d after %d", st.Frames, last)
					return
				}
				last = st.Frames
				polls.Add(1)
			}
		}()
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := int64(0); k < frames; k++ {
		if err := s.Ingest(cruiseFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	close(done)
	wg.Wait()
	st := s.Close()

	if st.Frames != frames {
		t.Fatalf("ingested %d frames, want %d", st.Frames, frames)
	}
	if st.Violations != 0 {
		t.Fatalf("clean cruise raised %d violations — steady-state precondition broken", st.Violations)
	}
	if got := heartbeats.Load(); got != frames/1000 {
		t.Fatalf("heartbeats = %d, want %d", got, frames/1000)
	}
	if polls.Load() == 0 {
		t.Fatal("stats pollers never ran")
	}
	// The session's live state is O(assertions) bookkeeping. Allow
	// generous slack for heap noise from the pollers and GC bookkeeping;
	// 60k ingested frames would occupy tens of MiB if the session were
	// buffering them.
	const ceiling = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Fatalf("heap grew %d bytes over %d frames, want < %d — session is buffering the stream",
			grew, frames, ceiling)
	}
}

// TestSessionIngestAllocs pins the zero-allocation steady-state ingest
// contract: once warmed up, pushing a clean frame through the session —
// monitor step across the full catalog, stats update — allocates
// nothing. Setup and warm-up cost is excluded by differencing
// two run lengths, the same idiom the sim hot-path test uses.
func TestSessionIngestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs long runs")
	}
	s, err := stream.New(stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	// Warm up: first frames populate Rate-assertion history and any lazy
	// state.
	for ; next < 100; next++ {
		if err := s.Ingest(cruiseFrame(next)); err != nil {
			t.Fatal(err)
		}
	}
	allocsFor := func(frames int64) float64 {
		return testing.AllocsPerRun(1, func() {
			end := next + frames
			for ; next < end; next++ {
				if err := s.Ingest(cruiseFrame(next)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short := allocsFor(500)
	long := allocsFor(4500)
	perFrame := (long - short) / 4000
	if perFrame > 0.001 {
		t.Errorf("steady-state ingest costs %.4f allocs/frame (short=%.0f long=%.0f), want 0",
			perFrame, short, long)
	}
	if st := s.Stats(); st.Violations != 0 {
		t.Fatalf("clean cruise raised %d violations — measurement invalid", st.Violations)
	}
}

// BenchmarkSessionIngest measures the per-frame streaming overhead the
// EXPERIMENTS note quotes against batch monitoring.
func BenchmarkSessionIngest(b *testing.B) {
	s, err := stream.New(stream.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Ingest(cruiseFrame(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
