// Command perfbench is the repository benchmark. It runs one named
// workload against the SoftCell packages through their public functions,
// checks every answer, and prints its metrics: the end-to-end set with
// --trace 0, the per-layer set with --trace 1.
//
//	bash _perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
//
// The second-to-last line of standard output is a report (configuration,
// input digest, every metric with its sample count); the last line is the
// result object. A failed correctness check exits 1; a run that could not
// be set up exits 2 without a result.
//
// A run measures its whole window in one process. Latency on a shared
// two-core host drifts by tens of percent over seconds, so a run gains
// steadiness from a long window, not from spreading it over processes.
// The plant is built spec.json's "setups" times and setup_s is the median.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

//go:embed spec.json
var specJSON []byte

// specT is the machine-read part of spec.json.
type specT struct {
	GOMAXPROCS       int            `json:"gomaxprocs"`
	Transport        string         `json:"transport"`
	Setups           int            `json:"setups"`
	WarmupS          float64        `json:"warmup_s"`
	TraceSampleEvery map[string]int `json:"trace_sample_every"`
	Plant            ctlConfig      `json:"control_plant"`
	Churn            churnConfig    `json:"churn"`
	Pathstorm        stormConfig    `json:"pathstorm"`
	Traffic          trafficConfig  `json:"traffic"`
}

func (s *specT) warmup() time.Duration { return time.Duration(s.WarmupS * float64(time.Second)) }

type workloadFunc func(s *specT, seed int64, window time.Duration, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"churn":     runChurn,
	"pathstorm": runPathstorm,
	"traffic":   runTraffic,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: churn, pathstorm or traffic")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs instrumented and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var s specT
	if err := json.Unmarshal(specJSON, &s); err != nil {
		fmt.Fprintf(stderr, "perfbench: spec.json: %v\n", err)
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload churn|pathstorm|traffic, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(s.GOMAXPROCS)
	window := time.Duration(*seconds * float64(time.Second))

	out, err := wl(&s, *seed, window, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	metrics := make(map[string]metric, len(names))
	for _, m := range names {
		v, _ := out.sheet.value(m.name)
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	host, _ := os.Hostname()
	checks := out.checks.messages()
	correct := out.checks.failed() == 0
	rep := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "host": host,
		"transport": s.Transport, "setups": s.Setups, "inputs_digest": out.digest, "inputs": out.inputs,
		"backlog_grew": out.backlog, "checks_failed": out.checks.failed(), "check_messages": checks,
		"metrics": out.sheet.vals,
	}
	b, err := json.Marshal(map[string]any{"perfbench": rep})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: report: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	fmt.Fprintln(stdout, resultLine(correct, out.attempted, out.failed, metrics))
	if !correct {
		for _, m := range checks {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", m)
		}
		return 1
	}
	return 0
}
