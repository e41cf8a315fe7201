// Advisor: the paper's future work (§VI) end to end — "automatic
// strategies for selecting different organization for applications
// based on the characterization of sparsity in their data." The example
// generates the paper's three patterns, asks the advisor for a
// recommendation under three workload profiles, then *verifies* the
// advice by measuring every organization on the simulated Lustre
// backend and comparing the advisor's pick against the measured winner.
package main

import (
	"context"
	"fmt"
	"log"

	"sparseart"
)

type workload struct {
	name         string
	weights      sparseart.Weights
	readFraction float64
}

func main() {
	workloads := []workload{
		{"balanced", sparseart.BalancedWeights(), 0.05},
		{"read-heavy", sparseart.Weights{Write: 1, Read: 8, Space: 1}, 0.5},
		{"archive (space)", sparseart.Weights{Write: 1, Read: 0.1, Space: 8}, 0.001},
	}

	for _, pattern := range []sparseart.Pattern{sparseart.TSP, sparseart.GSP, sparseart.MSP} {
		cfg, err := sparseart.TableIIConfig(pattern, 3, sparseart.ScaleSmall, 7)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := sparseart.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		profile, err := sparseart.Characterize(ds.Coords, cfg.Shape)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v %v: %d points, density %.3f%%, prefix share %.2f, band %.2f, cluster %.1fx\n",
			pattern, cfg.Shape, ds.NNZ(), 100*profile.Density,
			profile.PrefixShare, profile.BandScore, profile.ClusterScore)

		for _, w := range workloads {
			rec, err := sparseart.Recommend(profile, w.weights, w.readFraction)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s -> %v\n", w.name, rec.Best)
		}

		// Verify the balanced recommendation against measurement.
		measuredBest, err := measureBest(cfg.Shape, ds)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := sparseart.Recommend(profile, sparseart.BalancedWeights(), 0.05)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "MATCH"
		if rec.Best != measuredBest {
			verdict = fmt.Sprintf("advisor says %v", rec.Best)
		}
		fmt.Printf("  measured balanced winner: %v (%s)\n\n", measuredBest, verdict)
	}
}

// measureBest writes and reads the dataset with every organization and
// scores them the way the paper's Table IV does (equal-weight
// normalized write time, read time, and size; lower is better).
func measureBest(shape sparseart.Shape, ds *sparseart.Dataset) (sparseart.Kind, error) {
	region, err := sparseart.ReadRegionFor(shape)
	if err != nil {
		return 0, err
	}
	type row struct{ write, read, size float64 }
	rows := map[sparseart.Kind]row{}
	var maxW, maxR, maxS float64
	for _, kind := range sparseart.Kinds() {
		fs := sparseart.NewPerlmutterSim()
		st, err := sparseart.CreateStoreOn(fs, "advise", kind, shape)
		if err != nil {
			return 0, err
		}
		wrep, err := st.Write(ds.Coords, ds.Values)
		if err != nil {
			return 0, err
		}
		_, rrep, err := st.Query(context.Background(), sparseart.QueryRequest{Probe: region.Coords(), AsOf: sparseart.AsOfLatest})
		if err != nil {
			return 0, err
		}
		r := row{wrep.Sum().Seconds(), rrep.Sum().Seconds(), float64(st.TotalBytes())}
		rows[kind] = r
		maxW, maxR, maxS = max(maxW, r.write), max(maxR, r.read), max(maxS, r.size)
	}
	var best sparseart.Kind
	bestScore := 4.0
	for kind, r := range rows {
		score := (r.write/maxW + r.read/maxR + r.size/maxS) / 3
		if score < bestScore {
			bestScore, best = score, kind
		}
	}
	return best, nil
}
