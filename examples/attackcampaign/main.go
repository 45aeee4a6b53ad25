// Attack campaign: sweep every built-in attack class against the same
// stack and print a detection/diagnosis summary — a compact version of the
// paper-style evaluation loop. The sweep fans out across a worker pool
// (adassure.RunScenarios), one goroutine per core; the rows come back in
// attack order regardless of which scenario finishes first.
//
//	go run ./examples/attackcampaign
package main

import (
	"context"
	"fmt"
	"log"
)

import "adassure"

func main() {
	fmt.Printf("%-22s %-10s %-8s %-10s %-22s\n",
		"attack", "detected", "by", "latency", "diagnosed as")
	fmt.Println("---------------------------------------------------------------------------")

	attackNames := adassure.AttackNames()
	scns := make([]adassure.Scenario, len(attackNames))
	for i, attack := range attackNames {
		// Canonicalize states every default, the attack window among them.
		scn, err := adassure.Scenario{Attack: attack, Seed: 1}.Canonicalize()
		if err != nil {
			log.Fatal(err)
		}
		scns[i] = scn
	}
	outs, err := adassure.RunScenarios(context.Background(), scns, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, out := range outs {
		attack, onset := attackNames[i], scns[i].AttackStart

		detected, by, latency := "NO", "-", "-"
		for _, v := range out.Violations {
			if v.T >= onset {
				detected = "yes"
				by = v.AssertionID
				latency = fmt.Sprintf("%.2f s", v.T-onset)
				break
			}
		}
		diagnosed := string(out.Hypotheses[0].Cause)
		marker := " "
		if diagnosed == string(attack) {
			marker = "*"
		}
		fmt.Printf("%-22s %-10s %-8s %-10s %-22s%s\n",
			attack, detected, by, latency, diagnosed, marker)
	}
	fmt.Println("\n(* = top-1 diagnosis matches the injected ground truth)")
}
