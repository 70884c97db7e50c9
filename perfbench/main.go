// Command perfbench is the repository benchmark: one command that drives
// the informer facade end to end on a named workload and prints every
// metric by name and unit, then one JSON result line.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloads.go for their shapes and the reason each exists):
//
//	ingest-live       open-loop per-source polls drained every 16 polls
//	read-mix          two closed-loop HTTP readers beside a 2/s writer
//	rollover-sharded  closed-loop daily rollovers over a 5-shard corpus
//
// With --trace 0 the run reports the end-to-end metrics: set-up time,
// poll-to-wire freshness over SSE and webhooks, HTTP read latency and rate,
// CPU per unit of work and live heap. With --trace 1 the run is split in
// two halves on one corpus: an untraced half and a traced half whose
// rounds are replayed call by call on a shadow pipeline (trace.go) to give
// per-layer spans; the difference between the halves' freshness is the
// tracing overhead. Every run ends with a correctness gate (gate.go) that
// is off the clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	)
	flag.Parse()
	w, ok := workloadByName(*name, fullScale)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// printResult prints each metric on its own line, then the JSON result.
func printResult(f *os.File, res *result) {
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(f, "%-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}
