// QoS example: the paper's second insight operationalized. Applications
// differ by orders of magnitude in sensitivity to remote-memory latency
// (Fig. 5), so resource allocation must be QoS-aware: under elevated
// network delay, latency-sensitive workloads (Graph500) should be kept on
// (or migrated to) local memory, while latency-tolerant services (Redis)
// can stay on disaggregated memory almost for free.
//
// The example measures both workloads in both placements under an elevated
// delay, then shows what a QoS-aware placement decision saves.
package main

import (
	"fmt"
	"log"

	"thymesim/internal/core"
)

func main() {
	log.SetFlags(0)
	opts := core.Default()
	const period = 250 // elevated network delay: 1us per transaction

	fmt.Println("Measuring placements under elevated network delay (PERIOD=250)...")
	redisLocal := opts.KVLocal()
	redisRemote := opts.KVRemote(period)
	graphLocal := opts.GraphLocal()
	graphRemote := opts.GraphRemote(period)

	redisPenalty := redisLocal.Throughput / redisRemote.Throughput
	graphPenalty := float64(graphRemote.BFSTime) / float64(graphLocal.BFSTime)

	fmt.Printf("\n%-22s %15s %15s %10s\n", "workload", "local", "remote@delay", "penalty")
	fmt.Printf("%-22s %12.0f/s %12.0f/s %9.2fx\n",
		"redis (throughput)", redisLocal.Throughput, redisRemote.Throughput, redisPenalty)
	fmt.Printf("%-22s %15v %15v %9.1fx\n",
		"graph500 BFS (JCT)", graphLocal.BFSTime, graphRemote.BFSTime, graphPenalty)

	// Classify by measured sensitivity, as a QoS-aware control plane
	// would: a job that slows down more than 2x is latency-sensitive.
	class := func(penalty float64) string {
		if penalty > 2 {
			return "latency-sensitive"
		}
		return "latency-tolerant"
	}
	fmt.Printf("\nQoS classification: redis=%s, graph500=%s\n", class(redisPenalty), class(graphPenalty))

	// Place by class: the sensitive workload keeps local memory; the
	// tolerant one borrows.
	for _, w := range []struct {
		name    string
		penalty float64
	}{{"graph500", graphPenalty}, {"redis", redisPenalty}} {
		if class(w.penalty) == "latency-sensitive" {
			fmt.Printf("placement: %s -> local memory (QoS: protect the sensitive job)\n", w.name)
		} else {
			fmt.Printf("placement: %s -> disaggregated memory (penalty only %.2fx)\n", w.name, w.penalty)
		}
	}

	naive := float64(graphRemote.BFSTime)
	qos := float64(graphLocal.BFSTime)
	fmt.Printf("\nQoS-aware placement cuts the sensitive job's completion time %.1fx (%v -> %v)\n",
		naive/qos, graphRemote.BFSTime, graphLocal.BFSTime)
}
