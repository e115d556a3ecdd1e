package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
)

// referenceJSON holds the reference digest of each workload's warm-up
// unit, per seed: the default seed and one held-out seed that was not
// used while the workloads were sized.
//
//go:embed reference.json
var referenceJSON []byte

// reference returns the reference digest of workload at seed, or "" when
// the seed has none; then the run is checked against its own first unit.
func reference(workload string, seed uint64) string {
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return refs[workload][strconv.FormatUint(seed, 10)]
}

// digestCheck checks the per-operation output digests of every unit
// against those of the run's first unit, and the first unit's digest
// against the reference.
type digestCheck struct {
	ref  string   // reference unit digest, "" when the seed has none
	want []string // per-operation digests of the first unit
	unit string   // digest of the first unit
}

// check returns how many of a unit's operations failed: those that
// reported a failure themselves (bad), those whose digest differs from
// the first unit's, and all of them when the unit's digest differs from
// the reference.
func (c *digestCheck) check(got []string, bad []bool) int {
	unit := unitDigest(got)
	if c.want == nil {
		c.want, c.unit = got, unit
	}
	failed := 0
	for i := range got {
		if bad[i] || got[i] != c.want[i] || (c.ref != "" && unit != c.ref) {
			failed++
		}
	}
	return failed
}

// unitDigest folds per-operation digests into one.
func unitDigest(ds []string) string {
	h := sha256.Sum256([]byte(strings.Join(ds, "\n")))
	return hex.EncodeToString(h[:8])
}
