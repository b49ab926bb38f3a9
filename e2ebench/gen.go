package main

import (
	"math/rand"

	"authdb/internal/core"
)

// Input generation. Every input the program sees — keys, record
// payloads, the hot-range catalog, the Zipf draws, the write mix, the
// signing keys — comes from math/rand sources derived from --seed here,
// so the same seed replays the same operation sequence byte for byte.
// Nothing in the program under test (internal/workload included) is
// used to generate inputs: a change to the program cannot change what
// the benchmark asks of it.

const (
	recLen  = 512          // bytes per record, as in the paper's Table 2
	payload = recLen - 20  // minus key, rid and timestamp
	zipfS   = 1.07         // Zipf exponent of the hot-range and plan draws
	keyGap  = 8            // mean spacing of generated keys; leaves room for inserts
	keyBase = int64(1_000) // first key
)

// stream derives an independent deterministic source for one purpose
// (records, ops, keys, ...) from the run seed.
func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// Stream purposes.
const (
	srcRecords = iota + 1
	srcKeys
	srcCatalog
	srcOps
	srcValues
	srcInner
)

// genKeys returns n ascending unique keys with gaps in [keyGap/2, 3keyGap/2).
func genKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	k := keyBase
	for i := range keys {
		k += int64(keyGap/2 + rng.Intn(keyGap))
		keys[i] = k
	}
	return keys
}

// genValue returns one fixed-size record payload.
func genValue(rng *rand.Rand, size int) []byte {
	v := make([]byte, size)
	rng.Read(v)
	return v
}

// genRecords builds one record per key with a single payload attribute.
// RIDs are assigned 1..n in key order.
func genRecords(rng *rand.Rand, keys []int64, size int) []*core.Record {
	recs := make([]*core.Record, len(keys))
	for i, k := range keys {
		recs[i] = &core.Record{RID: uint64(i + 1), Key: k, Attrs: [][]byte{genValue(rng, size)}}
	}
	return recs
}

// zipf draws catalog indexes in [0, n) with P(i) ∝ (1+i)^-zipfS.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// hotCatalog returns count narrow ranges of width consecutive keys each,
// starting at uniformly drawn positions of keys.
func hotCatalog(rng *rand.Rand, keys []int64, count, width int) []core.Range {
	out := make([]core.Range, count)
	for i := range out {
		s := rng.Intn(len(keys) - width + 1)
		out[i] = core.Range{Lo: keys[s], Hi: keys[s+width-1]}
	}
	return out
}
