package stream_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"adassure/internal/stream"
)

// FuzzStreamNDJSON drives arbitrary byte streams through the NDJSON
// ingest contract and checks the invariants the stream wire format
// promises: no panic on any input, every non-blank line is either
// accepted as a frame or counted as a rejection (nothing is silently
// dropped), every ingestion error is one of the typed stream errors,
// every emitted event marshals cleanly to JSON, and the scanner-based
// Consume path agrees with line-at-a-time ingestion.
func FuzzStreamNDJSON(f *testing.F) {
	valid, err := json.Marshal(cruiseFrame(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(valid, '\n'))
	f.Add([]byte("{\"T\":1e999}\n"))                // non-finite via overflow
	f.Add([]byte("null\n"))                         // decodes to nothing — must reject
	f.Add([]byte("garbage\n{\"T\":2}\n"))           // recovery after a bad line
	f.Add([]byte("{\"T\":2}\n{\"T\":1}\n"))         // out-of-order timestamps
	f.Add([]byte("{\"T\":1,\"Bogus\":3}\n"))        // unknown field
	f.Add([]byte("{\"T\":1} {\"T\":2}\n"))          // trailing data on one line
	f.Add([]byte("{\"T\": 1"))                      // truncated object, no newline
	f.Add([]byte("\n \n\t\r\n{\"T\":0.5}\n"))       // keep-alive blanks
	f.Add([]byte("a\nb\nc\nd\ne\n{\"T\":1}\n"))     // budget exhaustion
	f.Add([]byte("{\"T\":\"one\"}\n[1,2]\ntrue\n")) // wrong types

	f.Fuzz(func(t *testing.T, data []byte) {
		var events []stream.Event
		s, err := stream.New(stream.Config{
			ErrorBudget: 3,
			Heartbeat:   2,
			Sink: func(e stream.Event) {
				events = append(events, e)
				if _, err := json.Marshal(e); err != nil {
					t.Fatalf("event %+v does not marshal: %v", e, err)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		var wantFrames, wantRejected int64
		terminal := false
		for _, line := range bytes.Split(data, []byte("\n")) {
			err := s.IngestLine(line)
			switch {
			case err == nil:
				if len(bytes.TrimSpace(line)) != 0 {
					wantFrames++
				}
			case stream.Terminal(err):
				var be *stream.BudgetError
				if !errors.As(err, &be) && !errors.Is(err, stream.ErrClosed) {
					t.Fatalf("terminal error has unexpected type %T: %v", err, err)
				}
				wantRejected++
				terminal = true
			default:
				var fe *stream.FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("non-terminal error has unexpected type %T: %v", err, err)
				}
				wantRejected++
			}
			if terminal {
				break
			}
		}
		st := s.Close()
		if st.Frames != wantFrames || st.Rejected != wantRejected {
			t.Fatalf("stats = %+v, tallied %d accepted / %d rejected — frames dropped or double-counted",
				st, wantFrames, wantRejected)
		}

		// The Consume path must agree with line-at-a-time ingestion
		// whenever it can read the whole input (over-long lines abort the
		// scanner early, which the per-line path cannot observe).
		s2, err := stream.New(stream.Config{ErrorBudget: 3, Heartbeat: 2})
		if err != nil {
			t.Fatal(err)
		}
		cerr := s2.Consume(bytes.NewReader(data))
		if cerr == nil && !terminal {
			if st2 := s2.Stats(); st2.Frames != wantFrames || st2.Rejected != wantRejected {
				t.Fatalf("Consume stats = %+v, per-line tally %d/%d", st2, wantFrames, wantRejected)
			}
		}
		if terminal && cerr == nil {
			t.Fatal("per-line ingestion hit a terminal error but Consume returned nil")
		}
	})
}
