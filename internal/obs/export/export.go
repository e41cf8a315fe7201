// Package export renders obs.Snapshot in the formats standard tooling
// consumes, with no dependencies beyond the standard library. The
// lossless machine form is the Snapshot's own JSON (Snapshot.JSON /
// obs.DecodeSnapshot); this package adds the two views that have
// readers of their own:
//
//   - Prometheus text exposition v0.0.4: `# TYPE`d families with
//     sorted, escaped label pairs; histograms synthesize cumulative
//     `_bucket` series (one `le` per occupied power-of-two bucket,
//     upper bound 2^i−1 ns rendered in seconds), `_sum`, and `_count`.
//     ParsePrometheus is the matching strict parser, used by the tests
//     and the CI endpoint check.
//   - Chrome trace_event JSON: the trace spans as `ph:"X"` complete
//     events, one process per Proc label and one track per nesting
//     depth, loadable in chrome://tracing or Perfetto.
//
// Both exporters are total over any decodable Snapshot — absorbed
// or fuzz-decoded snapshots with non-canonical bucket bounds are
// canonicalized, never rejected.
package export

import (
	"math/bits"
	"sort"

	"sparseart/internal/obs"
)

// point is one metric series of a family: its canonical full name, the
// parsed label set, and the indexes back into the snapshot.
type point struct {
	name   string // canonical "family{k=v}" key
	labels []obs.Label
}

// family groups every series of one metric family, sorted by canonical
// name so export output is deterministic.
type family struct {
	name   string
	points []point
}

// groupByFamily splits a flat canonical-name map into sorted families.
func groupByFamily(names []string) []family {
	byFam := map[string][]point{}
	for _, n := range names {
		fam, labels := obs.ParseName(n)
		byFam[fam] = append(byFam[fam], point{name: n, labels: labels})
	}
	fams := make([]family, 0, len(byFam))
	for fam, pts := range byFam {
		sort.Slice(pts, func(i, j int) bool { return pts[i].name < pts[j].name })
		fams = append(fams, family{name: fam, points: pts})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedNames returns a map's keys sorted.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// bucketIndex canonicalizes a bucket's inclusive lower bound to the
// histogram's bit-length bucket index (0 = the zero bucket, i covers
// [2^(i-1), 2^i) ns). Canonical snapshots always carry LowNs = 2^(i-1)
// exactly; absorbed or decoded snapshots may not, so the index is
// derived from the bit length rather than trusted.
func bucketIndex(lowNs int64) int {
	if lowNs <= 0 {
		return 0
	}
	return bits.Len64(uint64(lowNs))
}

// canonicalBuckets folds a snapshot's bucket list into a dense count
// per bit-length index, merging any entries that canonicalize to the
// same bucket. It returns the counts plus the lowest and highest
// occupied non-zero index (lo > hi when only the zero bucket is
// occupied).
func canonicalBuckets(hs obs.HistogramSnapshot) (counts [64]int64, lo, hi int) {
	lo, hi = 64, -1
	for _, b := range hs.Buckets {
		i := bucketIndex(b.LowNs)
		if i > 63 {
			i = 63
		}
		counts[i] += b.Count
		if i > 0 && b.Count != 0 {
			if i < lo {
				lo = i
			}
			if i > hi {
				hi = i
			}
		}
	}
	return counts, lo, hi
}
