package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the harness must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tens of sources for one second, untraced
// and traced, and requires a correct result that reports exactly the
// metrics BENCHMARK.json declares, in their declared units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, wl := range c.Workloads {
		if _, ok := workloadByName(wl.Name, smokeScale); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	// Every workload the harness knows runs here, listed in BENCHMARK.json
	// or not, so none of them rots.
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			w, _ := workloadByName(name, smokeScale)
			var log strings.Builder
			res, err := run(w, 3, 1, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, want %s", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
