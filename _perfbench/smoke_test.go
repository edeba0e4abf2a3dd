package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every named metric is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every plant several times")
	}
	for _, w := range []string{"churn", "pathstorm", "traffic"} {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			rc := run([]string{"--workload", w, "--seed", "3", "--seconds", "6", "--trace", trace}, &out, &errOut)
			if rc != 0 {
				t.Errorf("%s trace %s: exit %d: %s", w, trace, rc, errOut.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: correct=%v attempted=%d metrics=%d, want true, >0, %d",
					w, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
				if trace == "0" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w, m.name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the metrics this program prints, with their units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", tc.kind, len(tc.declared), len(tc.printed))
			continue
		}
		for i, m := range tc.printed {
			if d := tc.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", tc.kind, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}
