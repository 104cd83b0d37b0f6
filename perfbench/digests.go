package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"pciebench/internal/report"
	"pciebench/internal/sweep"
)

// digests.json holds the SHA-256 of every output the benchmark checks,
// recorded from the simulator before any optimisation: the 18
// repro-quick files, and the three fabric-sweep TSVs for each seed=
// override of the pool. Regenerate it with --record-digests only for a
// change that is meant to alter simulated output.
//
//go:embed digests.json
var digestsJSON []byte

type digestTable struct {
	ReproQuick map[string]string `json:"repro_quick"`
	FabricN    int               `json:"fabric_n"`
	// FabricSweep maps a seed= override to each grid's TSV digest.
	FabricSweep map[string]map[string]string `json:"fabric_sweep"`
}

func loadDigests() digestTable {
	var tab digestTable
	if err := json.Unmarshal(digestsJSON, &tab); err != nil {
		panic(fmt.Sprintf("embedded digests.json: %v", err))
	}
	return tab
}

// recordDigests computes the table from the current tree. The fabric
// grids run serially (one runner worker, one simulation worker), so
// the workload's parallel runs are checked against the serial path.
func recordDigests(w io.Writer) error {
	e := &env{log: io.Discard}
	report.SetParallelism(0)
	tab := digestTable{ReproQuick: map[string]string{}, FabricN: fabricN, FabricSweep: map[string]map[string]string{}}
	for name, tsv := range reproduce(e, nil, -1, "record") {
		tab.ReproQuick[name] = digest(tsv)
	}
	if len(tab.ReproQuick) != 18 {
		return fmt.Errorf("repro-quick made %d files, want 18", len(tab.ReproQuick))
	}
	engine := &sweep.Engine{Workers: 1, SimWorkers: 1, Quality: sweep.Quick}
	for seed := int64(1); seed <= fabricSeedPool; seed++ {
		specs, err := fabricSpecs(seed)
		if err != nil {
			return err
		}
		grids := map[string]string{}
		for _, s := range specs {
			res, _, err := engine.Run(context.Background(), s)
			if err != nil {
				return fmt.Errorf("%s seed=%d: %w", s.Name, seed, err)
			}
			tsv, err := emitTSV(res)
			if err != nil {
				return err
			}
			grids[s.Name] = digest(tsv)
		}
		tab.FabricSweep[strconv.FormatInt(seed, 10)] = grids
	}
	blob, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
