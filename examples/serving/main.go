// Serving: run the scenario-execution service in-process, execute a
// GNSS-spoof scenario through the typed client, then repeat the request
// to show the content-addressed cache serving byte-identical evidence
// without a second simulation.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"adassure/internal/service"
)

func main() {
	// An in-process server: the same code path adassure-server wires to a
	// real listener.
	svc := service.New(service.Config{Workers: 2})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	defer svc.Close(context.Background())

	client := service.NewClient(hs.URL)
	ctx := context.Background()

	// A campus shuttle on the urban loop under a slow GNSS drift spoof —
	// the quickstart scenario, now requested over HTTP.
	req := service.Request{
		Attack:   "gnss-drift-spoof",
		Seed:     1,
		Duration: 70,
	}

	resp, first, err := client.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first call  : %-5s  %d violations, %d hypotheses\n",
		first.Cache, len(resp.Violations), len(resp.Hypotheses))
	if len(resp.Hypotheses) > 0 {
		h := resp.Hypotheses[0]
		fmt.Printf("top cause   : %s (confidence %.2f)\n", h.Cause, h.Confidence)
	}

	// The identical request again: served from the cache, byte-identical.
	_, second, err := client.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second call : %-5s  byte-identical body: %v\n",
		second.Cache, bytes.Equal(first.Body, second.Body))

	// The server's own counters confirm one simulation served both calls.
	doc, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	runs, _ := doc.Sum("sim_runs_total")
	hits, _ := doc.Sum("service_cache_hits_total")
	fmt.Printf("server ran %.0f simulation(s); cache hits: %.0f\n", runs, hits)
}
