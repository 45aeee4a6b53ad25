// Command adassure-mutate runs a mutation-testing campaign against the
// assertion catalog: it injects exactly one controller mutant or
// sensor/actuator fault per simulation run, scores each assertion by the
// mutants it kills (fires on the mutated run but not on the clean baseline
// of the same track and seed), and prints the kill matrix plus the ranked
// surviving-mutant report.
//
// Usage:
//
//	adassure-mutate                              # default grid (15 mutants × 2 tracks)
//	adassure-mutate -tracks urban-loop           # single route
//	adassure-mutate -mutants identity,ctrl-gain-flip,ctrl-gain-scale=0.25
//	adassure-mutate -controller stanley -duration 40
//	adassure-mutate -json report.json            # machine-readable report ("-" = stdout)
//	adassure-mutate -workers 8                   # pool size (default GOMAXPROCS)
//
// -mutants takes a comma-separated list of operator names, each optionally
// parameterised as op=value (a bare op uses its default). The report is
// byte-identical for any -workers value.
//
// Observability: -metrics out.prom writes the runtime metrics aggregated
// across every run of the campaign as Prometheus text, and -events out.json
// records the structured event timeline (tracks scoped per grid cell).
// Neither changes the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"adassure"
	"adassure/internal/cli"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adassure-mutate: "+format+"\n", args...)
	os.Exit(1)
}

// parseMutants turns "op,op=param,..." into canonical specs.
func parseMutants(s string) ([]adassure.MutantSpec, error) {
	var specs []adassure.MutantSpec
	for _, item := range cli.SplitCSV(s) {
		spec := adassure.MutantSpec{Op: item}
		if op, val, ok := strings.Cut(item, "="); ok {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("mutant %q: bad parameter %q", item, val)
			}
			spec = adassure.MutantSpec{Op: op, Param: p}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// renderMatrix prints the kill matrix as an aligned table: one row per
// mutant, an X per killing assertion, plus the aggregate columns.
func renderMatrix(w io.Writer, rep *adassure.MutationReport) {
	headers, body := rep.KillMatrix()
	rows := append([][]string{headers}, body...)
	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		parts := make([]string, len(row))
		for i, cell := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		if ri == 0 {
			total := 0
			for _, wd := range widths {
				total += wd + 2
			}
			fmt.Fprintln(w, strings.Repeat("-", total))
		}
	}
	fmt.Fprintln(w)
}

func main() {
	campaign := cli.RegisterCampaign(flag.CommandLine)
	var (
		mutantsCSV = flag.String("mutants", "", "comma-separated mutants, op or op=param (default: full catalog; see -ops)")
		listOps    = flag.Bool("ops", false, "list the mutation operators and exit")
	)
	flag.Parse()

	if *listOps {
		for _, op := range adassure.MutantOps() {
			fmt.Println(op)
		}
		return
	}

	mutants, err := parseMutants(*mutantsCSV)
	if err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	rep, err := adassure.RunMutationCampaign(adassure.MutationConfig{
		Campaign: campaign.Base(),
		Mutants:  mutants,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if campaign.JSONToStdout() {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatalf("write report: %v", err)
		}
	} else {
		renderMatrix(os.Stdout, rep)
		if err := rep.WriteSurvivorReport(os.Stdout); err != nil {
			fatalf("write survivor report: %v", err)
		}
		fmt.Printf("\n(%d mutants × %d tracks scored in %.1fs)\n",
			len(rep.Scores), len(rep.Tracks), time.Since(start).Seconds())
	}
	if err := campaign.WriteFiles(os.Stderr, rep.WriteJSON); err != nil {
		fatalf("%v", err)
	}
}
