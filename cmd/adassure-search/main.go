// Command adassure-search runs an adversarial attack search against the
// assertion catalog: for each track × channel it descends toward the
// minimal attack magnitude that evades every assertion, and prints the
// resulting evasion frontier with a minimality certificate per point (the
// smallest still-detected magnitude bracketing the converged point from
// above).
//
// Usage:
//
//	adassure-search                                  # default channels, urban-loop + hairpin
//	adassure-search -tracks urban-loop -budget 24
//	adassure-search -channels sense-gnss-quantize=0.05:2.5,ctrl-lookahead-skip
//	adassure-search -mode cem -seed 7                # cross-entropy search over channel × window
//	adassure-search -assertions A1,A2,A13            # weakened catalog (what-if)
//	adassure-search -json report.json                # machine-readable report ("-" = stdout)
//	adassure-search -workers 8                       # pool size (default GOMAXPROCS)
//
// -channels takes a comma-separated list of operator names, each optionally
// bounded as op=min:max (a bare op searches the operator's full registry
// range). The report is byte-identical for any -workers value and for
// repeated runs at the same seed.
//
// Observability: -metrics out.prom writes the runtime metrics aggregated
// across every probe run as Prometheus text, and -events out.json records the
// structured event timeline (scoped per probe). Neither changes the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adassure"
	"adassure/internal/cli"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adassure-search: "+format+"\n", args...)
	os.Exit(1)
}

// parseChannels turns "op,op=min:max,..." into channel specs.
func parseChannels(s string) ([]adassure.SearchSpec, error) {
	var specs []adassure.SearchSpec
	for _, item := range cli.SplitCSV(s) {
		spec := adassure.SearchSpec{Op: item}
		if op, bounds, ok := strings.Cut(item, "="); ok {
			lo, hi, ok := strings.Cut(bounds, ":")
			if !ok {
				return nil, fmt.Errorf("channel %q: bounds must be min:max", item)
			}
			min, err := strconv.ParseFloat(lo, 64)
			if err != nil {
				return nil, fmt.Errorf("channel %q: bad min %q", item, lo)
			}
			max, err := strconv.ParseFloat(hi, 64)
			if err != nil {
				return nil, fmt.Errorf("channel %q: bad max %q", item, hi)
			}
			spec = adassure.SearchSpec{Op: op, Min: min, Max: max}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func main() {
	campaign := cli.RegisterCampaign(flag.CommandLine)
	var (
		channelsCSV = flag.String("channels", "", "comma-separated channels, op or op=min:max (default: monotone channel set; see -ops)")
		assertsCSV  = flag.String("assertions", "", "comma-separated assertion IDs to restrict the catalog (default: full catalog)")
		listOps     = flag.Bool("ops", false, "list the default search channels and exit")
		mode        = flag.String("mode", "descent", "search mode: descent or cem")
		budget      = flag.Int("budget", 0, "oracle evaluations per track × channel (descent) or per track (cem); 0 = mode default")
	)
	flag.Parse()

	if *listOps {
		for _, ch := range adassure.DefaultSearchChannels() {
			cc, err := ch.Canonicalize()
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s [%g, %g]\n", cc.Op, cc.Min, cc.Max)
		}
		return
	}

	channels, err := parseChannels(*channelsCSV)
	if err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	rep, err := adassure.RunSearch(adassure.SearchConfig{
		Campaign:   campaign.Base(),
		Channels:   channels,
		Assertions: cli.SplitCSV(*assertsCSV),
		Mode:       *mode,
		Budget:     *budget,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if campaign.JSONToStdout() {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatalf("write report: %v", err)
		}
	} else {
		if err := rep.WriteFrontierReport(os.Stdout); err != nil {
			fatalf("write frontier report: %v", err)
		}
		fmt.Printf("\n(%d frontier points, %d probe runs in %.1fs)\n",
			len(rep.Frontier), rep.TotalEvals, time.Since(start).Seconds())
	}
	if err := campaign.WriteFiles(os.Stderr, rep.WriteJSON); err != nil {
		fatalf("%v", err)
	}
}
