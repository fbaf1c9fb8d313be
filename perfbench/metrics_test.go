package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the checkout root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this command reports in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW [][2]string
	for _, w := range bf.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", gotW, wantW)
	}
	var gotE, wantE []metricDef
	for _, m := range bf.EndToEnd {
		gotE = append(gotE, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range endToEnd {
		wantE = append(wantE, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("BENCHMARK.json end_to_end %v, code has %v", gotE, wantE)
	}
	var gotL, wantL []metricDef
	for _, m := range bf.PerLayer {
		gotL = append(gotL, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, m := range perLayer {
		wantL = append(wantL, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("BENCHMARK.json per_layer %v, code has %v", gotL, wantL)
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.Name)
		}
	}
}
