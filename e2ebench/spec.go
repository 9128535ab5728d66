package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON is the single description of the benchmark's workloads and of
// which end-to-end metric each per-layer metric is expected to move. The
// program runs exactly the workloads it lists.
//
//go:embed spec.json
var specJSON []byte

// spec is the decoded spec.json.
type spec struct {
	Clients   int            `json:"clients"`
	Workloads []workloadSpec `json:"workloads"`
	Layers    []layerSpec    `json:"layers"`
}

// workloadSpec is one workload: the stack it runs and the traffic it sends.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Store is the store beneath the resilience layer: "cloudsim",
	// "minisql" or "cluster".
	Store      string  `json:"store"`
	Keys       int     `json:"keys"`
	ValueBytes int     `json:"value_bytes"`
	GetFrac    float64 `json:"get_frac"`
	// ZipfS is the Zipf exponent of key popularity; 0 picks keys uniformly.
	ZipfS float64 `json:"zipf_s"`
	// CacheEntries sizes the DSCL in-process cache; 0 runs without one.
	CacheEntries int `json:"cache_entries"`
	// CachePages sizes the minisql page cache (minisql only).
	CachePages int    `json:"cache_pages"`
	Sizes      string `json:"sizes"`
}

// layerSpec names one layer's metrics. spec.json also records, for each
// layer, the end-to-end metric its metrics should move and on which
// workloads they should and should not.
type layerSpec struct {
	Layer   string   `json:"layer"`
	Metrics []string `json:"metrics"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workload(name string) (workloadSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
