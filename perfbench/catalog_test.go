package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesJSON keeps the metric catalog the benchmark prints and
// the BENCHMARK.json that declares it in step.
func TestCatalogMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"fit-dense", "fit-store", "serve-impute"}; len(names) != len(want) || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		list       string
		json, code []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.list, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.list, i, c.json[i], c.code[i])
			}
		}
	}
}
