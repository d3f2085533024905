// live_pull demonstrates the data-centric paradigm with real bytes on
// real sockets: a miniature cluster of TCP "machines" hosting real
// expert weights runs one training step — workers pull experts through
// the §6 protocol (single flight per machine, credit window), run
// forward and backward, and push one pre-reduced gradient per expert
// back to its owner — with a numeric proof that the step's outputs
// equal the expert-centric computation exactly.
package main

import (
	"fmt"
	"log"

	"janus"
	"janus/internal/tensor"
)

func main() {
	cfg := janus.LiveConfig{
		Machines: 2, WorkersPerNode: 2,
		NumExperts: 8, TopK: 2, Hidden: 32,
		TokensPerWorker: 512, // R = T/(4nHE) = 512*2/(4*2*32*2) = 2
		Seed:            7, Credits: 4,
	}
	cl, err := janus.StartLiveCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Train(janus.LiveTrainOptions{Steps: 1})
	if err != nil {
		log.Fatal(err)
	}
	ref := cl.RunExpertCentricReference()
	for w := range ref {
		if !tensor.Equal(res.FinalOutputs[w], ref[w]) {
			log.Fatalf("worker %d output differs from the expert-centric reference", w)
		}
	}
	fmt.Println("step-1 outputs are bit-identical to the expert-centric reference")
	fmt.Printf("gradient pushes accepted per machine: %v (one pre-reduced push per external expert)\n",
		cl.GradsAccepted())
	tokenBytes := cl.TokenExchangeBytes()
	fmt.Printf("cross-machine bytes per training step: %d (expert pull + gradient push) vs %d (token exchange) = %.1fx reduction\n",
		res.CrossMachineBytes, tokenBytes,
		float64(tokenBytes)/float64(res.CrossMachineBytes))
}
