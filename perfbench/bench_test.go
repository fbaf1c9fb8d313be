package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinyWorkload is a five-day, 2000-samples-per-chunk archive whose
// statement list holds every statement kind.
var tinyWorkload = &workload{
	Name:           "tiny",
	Days:           5,
	SamplesPerFile: 2000,
	Statements:     24,
	SetUps:         1,
	gen: func(rng *rand.Rand, fx *fixture, n int) []statement {
		out := genHotMixed(rng, fx, n/2)
		out = append(out, genColdScan(rng, fx, n/4)...)
		return append(out, genStreamExport(rng, fx, n/4)...)
	},
}

func TestStatementsDeterministicPerSeed(t *testing.T) {
	for _, w := range append([]*workload{tinyWorkload}, workloads...) {
		t.Run(w.Name, func(t *testing.T) {
			fx1, err := w.generate(t.TempDir(), 7)
			if err != nil {
				t.Fatal(err)
			}
			fx2, err := w.generate(t.TempDir(), 7)
			if err != nil {
				t.Fatal(err)
			}
			a, b := w.statements(fx1, 7), w.statements(fx2, 7)
			if len(a) != w.Statements || !reflect.DeepEqual(a, b) {
				t.Fatalf("seed 7 gave two different lists (%d, %d statements)", len(a), len(b))
			}
			fx3, err := w.generate(t.TempDir(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if c := w.statements(fx3, 8); reflect.DeepEqual(a, c) {
				t.Fatal("seeds 7 and 8 gave the same list")
			}
		})
	}
}

// TestOracleOnTinyArchive serves a tiny archive and checks that every
// answer matches the oracle, and that a perturbed oracle rejects them.
func TestOracleOnTinyArchive(t *testing.T) {
	w := tinyWorkload
	fx, err := w.generate(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	stmts := w.statements(fx, 3)
	want, err := oracle(fx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, st := range stmts {
		kinds[st.Kind]++
	}
	for _, k := range []string{kindT1, kindT2, kindT4, kindAgg, kindStream} {
		if kinds[k] == 0 {
			t.Fatalf("tiny list has no %s statement: %v", k, kinds)
		}
	}
	svc, err := startService(w, fx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	c := newClient(svc.http, svc.base)
	bad := map[string]answer{}
	for k, v := range want {
		bad[k] = v
	}
	perturb(bad, stmts)
	caught := map[string]bool{}
	for _, st := range stmts {
		body := requestBody(st)
		rep, err := c.do(st, body, 0)
		if err != nil {
			t.Fatalf("%s: %v", st.SQL, err)
		}
		if err := matches(st.Kind, rep.Answer, want[st.SQL]); err != nil {
			t.Errorf("%s: %v", st.SQL, err)
		}
		if matches(st.Kind, rep.Answer, bad[st.SQL]) != nil {
			caught[st.Kind] = true
		}
		if st.Kind == kindStream {
			if err := c.checkReference(st, body, want[st.SQL]); err != nil {
				t.Errorf("reference decoder, %s: %v", st.SQL, err)
			}
		}
	}
	if len(caught) != len(kinds) {
		t.Errorf("perturbed oracle caught kinds %v, want all of %v", caught, kinds)
	}
}

// benchRoot makes a checkout-like root for bench: a BENCHMARK.json and
// room for .bench_build.
func benchRoot(t *testing.T) string {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestPerturbedOracleFailsTheRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "hot_mixed", "--seed", "5", "--seconds", "0.3", "--trace", "0",
		"--root", benchRoot(t), "--perturb-oracle"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("perturbed run exited 0:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s%s", err, out.String(), errOut.String())
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("perturbed run reported correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	requireMetrics(t, res.Metrics, endToEnd)
}

// requireMetrics checks that a run reported exactly the listed metrics,
// each with its unit.
func requireMetrics(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("reported %d metrics, want %d", len(got), len(defs))
	}
	for _, m := range defs {
		if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s = %+v, ok=%v; want unit %s", m.Name, v, ok, m.Unit)
		}
	}
}

func TestColdScanExceedsItsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 240-chunk archive")
	}
	var out bytes.Buffer
	res, err := bench(options{workload: "cold_scan", seed: 1, seconds: 1, trace: true, root: benchRoot(t)}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("cold_scan run failed:\n%s", out.String())
	}
	m := res.Metrics
	requireMetrics(t, m, perLayer)
	if v := m["cache.evictions_per_query"].Value; v <= 0 {
		t.Errorf("cache.evictions_per_query = %v, want > 0", v)
	}
	if v := m["cache.hit_ratio"].Value; v >= 1 {
		t.Errorf("cache.hit_ratio = %v, want < 1", v)
	}
	if v := m["exec.chunks_loaded_per_query"].Value; v <= 0 {
		t.Errorf("exec.chunks_loaded_per_query = %v, want > 0", v)
	}
}
