package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"

	"dynopt/internal/cluster"
)

// stamp is the environment and configuration a run measured under. Runs
// with different stamps are not comparable.
type stamp struct {
	Workload         string `json:"workload"`
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GOGC             string `json:"gogc"`
	GoVersion        string `json:"go_version"`
	SF               int    `json:"sf"`
	Nodes            int    `json:"nodes"`
	Clients          int    `json:"clients"`
	PlanCacheEntries int    `json:"plan_cache_entries"`
	PageCacheBytes   int64  `json:"page_cache_bytes"`
	BudgetPerNode    int64  `json:"budget_per_node_bytes"`
	DirFS            string `json:"data_and_spill_dir_fs"`
	SpillSync        bool   `json:"spill_sync"`
}

func makeStamp(w workload, sf, nodes int, root string) stamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	s := stamp{
		Workload: w.name, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc, GoVersion: runtime.Version(), SF: sf, Nodes: nodes, Clients: w.clients,
		BudgetPerNode: cluster.DefaultMemoryPerNodeBytes, DirFS: "none",
	}
	if w.memo {
		s.PlanCacheEntries = planCacheEntries
	}
	if w.paged {
		s.PageCacheBytes = pagedCacheBytes
		s.BudgetPerNode = pagedBudgetBytes
		s.DirFS = fsType(root)
	}
	return s
}

// id is a short digest of the stamp, for telling comparable runs apart.
func (s stamp) id() string {
	b, _ := json.Marshal(s) // a struct of plain fields always marshals
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s stamp) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}
