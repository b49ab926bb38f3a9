package main

import (
	"fmt"
	"runtime"
	"time"

	"authdb/internal/core"
	"authdb/internal/wal"
	"authdb/internal/wire"
)

// The single-relation workloads share one relation shape: nRecords
// records of recLen bytes, keys spaced by about keyGap.
const nRecords = 4096

// hot-read: Zipf draws from a fixed catalog of narrow hot ranges, in
// pipelined batches on one connection, every answer verified. Each
// round is batchesPerRound batches and one update of a hot key; every
// hotCloseEvery updates close a period and every hotSnapEvery updates
// snapshot the store. The hot set (hotRanges × hotWidth records) fits
// the answer cache and the client's hash-to-curve cache, so this
// exercises the cache-hit path, summary-tail composition and warm
// verification, and leaves signing and the WAL nearly idle.
const (
	hotRanges       = 256
	hotWidth        = 8
	hotDepth        = 8 // pipelined queries per batch
	batchesPerRound = 4
	hotCloseEvery   = 8
	hotSnapEvery    = 256
)

var hotRead = &workload{
	name:            "hot-read",
	roundsPerSecond: 180,
	blockRounds:     hotSnapEvery,
	setup: func(b *run) (*stack, error) {
		return setupSingle(b, func(st *stack) error {
			// Warm the answer cache and the client's caches: one pass
			// over the catalog.
			cat := hotCatalog(stream(b.seed, srcCatalog), st.rels[0].m.keys, hotRanges, hotWidth)
			for at := 0; at < len(cat); at += hotDepth {
				if err := b.warmBatch(st, cat[at:at+hotDepth]); err != nil {
					return err
				}
			}
			return nil
		})
	},
	loop: func(b *run, st *stack, rounds int) {
		r := st.rels[0]
		cat := hotCatalog(stream(b.seed, srcCatalog), r.m.keys, hotRanges, hotWidth)
		ops := stream(b.seed, srcOps)
		vals := stream(b.seed, srcValues)
		z := newZipf(ops, len(cat))
		batch := make([]core.Range, hotDepth)
		for round := 0; round < rounds; round++ {
			for i := 0; i < batchesPerRound; i++ {
				for j := range batch {
					batch[j] = cat[z.next()]
				}
				b.readBatch(st, r, batch, nil)
			}
			q := cat[z.next()]
			keys := r.m.span(q.Lo, q.Hi)
			key := keys[ops.Intn(len(keys))]
			attrs := [][]byte{genValue(vals, payload)}
			b.write(r, opUpdate, key, attrs, func(parent uint64) error {
				return b.maintain(r, hotCloseEvery, hotSnapEvery, parent)
			})
			b.roundDone()
		}
	},
	recover: recoverSingle,
}

// write-churn: uniform writes — updates, inserts and deletes — each made
// durable with one fsync, applied, and read back over the wire and
// verified. Every churnCloseEvery writes close a period and every
// churnSnapEvery writes snapshot and truncate the log. Reads always miss
// the answer cache (the write just bumped the shard's epoch) and mostly
// miss the client's caches (new versions, uniform keys): the
// cache-bypassing counterpart of hot-read. The mix (see churnOp) puts
// the median among deletes and the 90th percentile among inserts, not
// on the edge between two kinds of write, where it would flip from run
// to run.
const (
	churnCloseEvery = 16
	churnSnapEvery  = 256
	readBackRadius  = 2 // keys read back on each side of the written one
)

var writeChurn = &workload{
	name:            "write-churn",
	roundsPerSecond: 550,
	blockRounds:     churnSnapEvery,
	setup: func(b *run) (*stack, error) {
		return setupSingle(b, func(st *stack) error {
			// Let lazy client set-up (per-key tables) finish: a few reads.
			r := st.rels[0]
			rng := stream(b.seed, srcCatalog)
			for i := 0; i < 8; i++ {
				lo, hi := r.m.neighbourhood(r.m.keys[rng.Intn(len(r.m.keys))], readBackRadius)
				if err := b.warmBatch(st, []core.Range{{Lo: lo, Hi: hi}}); err != nil {
					return err
				}
			}
			return nil
		})
	},
	loop: func(b *run, st *stack, rounds int) {
		r := st.rels[0]
		ops := stream(b.seed, srcOps)
		vals := stream(b.seed, srcValues)
		for round := 0; round < rounds; round++ {
			kind, key := churnOp(ops, r.m)
			var attrs [][]byte
			if kind != opDelete {
				attrs = [][]byte{genValue(vals, payload)}
			}
			ts, err := b.write(r, kind, key, attrs, func(parent uint64) error {
				return b.maintain(r, churnCloseEvery, churnSnapEvery, parent)
			})
			if err == nil {
				lo, hi := r.m.neighbourhood(key, readBackRadius)
				b.readBatch(st, r, []core.Range{{Lo: lo, Hi: hi}}, func(_ int, a *core.Answer) error {
					return checkReadBack(a.Chain.Records, key, kind, ts)
				})
			}
			b.roundDone()
		}
	},
	recover: recoverSingle,
}

// churnOp draws one write: 40% update, 30% insert, 30% delete, on
// uniformly chosen keys. Inserts take a free key between two
// neighbours.
func churnOp(rng interface {
	Intn(int) int
	Int63n(int64) int64
}, m *model) (opKind, int64) {
	p := rng.Intn(10)
	switch {
	case p < 4:
		return opUpdate, m.keys[rng.Intn(len(m.keys))]
	case p < 7:
		for {
			i := rng.Intn(len(m.keys) - 1)
			if gap := m.keys[i+1] - m.keys[i]; gap > 1 {
				return opInsert, m.keys[i] + 1 + rng.Int63n(gap-1)
			}
		}
	default:
		return opDelete, m.keys[rng.Intn(len(m.keys))]
	}
}

// maintain runs the count-triggered owner duties after a write.
func (b *run) maintain(r *rel, closeEvery, snapEvery int, parent uint64) error {
	if b.writes%closeEvery == 0 {
		if err := b.closePeriod(r, parent); err != nil {
			return err
		}
	}
	if b.writes%snapEvery == 0 {
		return b.snapshot(r, parent)
	}
	return nil
}

// setupSingle builds the one-relation stack and runs warm on it. The
// set-up clock starts after the inputs are generated.
func setupSingle(b *run, warm func(st *stack) error) (*stack, error) {
	keys := genKeys(stream(b.seed, srcRecords), nRecords)
	recs := genRecords(stream(b.seed, srcValues+100), keys, payload)
	m := newModel()
	for _, rec := range recs {
		m.put(rec.Key, rec.Attrs)
	}
	b.ts = 0

	runtime.GC() // the previous set-up's garbage is not this one's cost
	sw := startWatch()
	sys, err := core.NewSystemWithRand(newScheme(), core.DefaultConfig(), keyReader(b.seed, 0), core.WithShards(shards))
	if err != nil {
		return nil, err
	}
	r := &rel{name: "r", da: sys.DA, qs: sys.QS, pub: sys.Pub, m: m}
	st := &stack{rels: []*rel{r}}
	if err := b.openStore(r); err != nil {
		return st, err
	}
	loadStart := time.Now()
	if err := b.load(r, recs); err != nil {
		return st, err
	}
	loadNS := time.Since(loadStart).Nanoseconds()
	if err := b.enableCache(r.qs); err != nil {
		return st, err
	}
	if err := b.serve(st, r.qs, r.pub, nil); err != nil {
		return st, err
	}
	if _, err := st.cl.SyncSummaries(0); err != nil {
		return st, fmt.Errorf("log-in sync: %w", err)
	}
	if err := warm(st); err != nil {
		return st, fmt.Errorf("warm-up: %w", err)
	}
	b.setupDone(sw, loadNS)
	return st, nil
}

// warmBatch fetches, verifies and model-checks one batch outside the
// measured loop.
func (b *run) warmBatch(st *stack, ranges []core.Range) error {
	answers, _, err := st.cl.QueryBatch(ranges)
	if err != nil {
		return err
	}
	for i, a := range answers {
		if err := checkRows(st.rels[0].m, ranges[i].Lo, ranges[i].Hi, a.Chain.Records, true); err != nil {
			return err
		}
	}
	return nil
}

// readBatch is one measured read: a pipelined fetch of the ranges, full
// verification, then the model checks (and extra, if given) on every
// accepted answer. The timed unit is the whole batch.
func (b *run) readBatch(st *stack, r *rel, ranges []core.Range, extra func(int, *core.Answer) error) {
	root := b.tr.begin("bench.read", 0)
	defer b.tr.end(root)
	b.attempted += len(ranges)
	t0 := time.Now()
	s := b.tr.beginRequest("client.fetch", root.ID)
	answers, err := st.cl.FetchBatch(ranges)
	b.tr.end(s)
	if err == nil {
		s = b.tr.beginRequest("client.verify", root.ID)
		_, err = st.cl.Verify(answers, ranges)
		b.tr.end(s)
	}
	lat := time.Since(t0).Nanoseconds()
	if err != nil {
		b.fail(len(ranges), err)
		return
	}
	if !b.sweeping {
		b.readNS = append(b.readNS, lat)
		b.answers += len(answers)
	}
	for i, a := range answers {
		if err := checkRows(r.m, ranges[i].Lo, ranges[i].Hi, a.Chain.Records, true); err != nil {
			b.mismatch(err)
		} else if extra != nil {
			if err := extra(i, a); err != nil {
				b.mismatch(err)
			}
		}
		if b.tr != nil && !b.sweeping {
			core, err := wire.AppendAnswerCore(nil, a)
			if err == nil {
				b.coreB += int64(len(core))
			}
			b.tailB += int64(len(wire.AppendSummaryTail(nil, a.Summaries)))
		}
	}
}

// write is one measured owner write: sign, append (one fsync) and
// apply, which is the latency a writer waits for. Then come the
// count-triggered duties it is due (maint: period close, snapshot,
// filter re-certification); a deployment runs those on the owner's own
// schedule, so they count in the loop's throughput but not in the
// write's latency. Last, the model update. It returns the write's
// timestamp.
func (b *run) write(r *rel, kind opKind, key int64, attrs [][]byte, maint func(parent uint64) error) (int64, error) {
	root := b.tr.begin("bench.write", 0)
	defer b.tr.end(root)
	b.attempted++
	t0 := time.Now()
	b.ts++
	ts := b.ts
	s := b.tr.begin("core.da_write", root.ID)
	var msg *core.UpdateMsg
	var err error
	switch kind {
	case opUpdate:
		msg, err = r.da.Update(key, attrs, ts)
	case opInsert:
		msg, err = r.da.Insert(&core.Record{Key: key, Attrs: attrs}, ts)
	case opDelete:
		msg, err = r.da.Delete(key, ts)
	}
	b.tr.end(s)
	if err == nil {
		err = b.deliver(r, msg, root.ID)
	}
	lat := time.Since(t0).Nanoseconds()
	if err == nil {
		b.writes++
		b.sigs += sigCount(msg)
		if maint != nil {
			err = maint(root.ID)
		}
	}
	if err != nil {
		b.fail(1, fmt.Errorf("%s %s %d: %w", r.name, kind, key, err))
		return ts, err
	}
	b.writeNS = append(b.writeNS, lat)
	if kind == opDelete {
		r.m.del(key)
	} else {
		r.m.put(key, attrs)
	}
	return ts, nil
}

// sigCount is the number of signatures an owner message carries.
func sigCount(msg *core.UpdateMsg) int {
	n := len(msg.Upserts)
	for _, u := range msg.Upserts {
		n += len(u.AttrSigs)
	}
	if msg.Summary != nil {
		n++
	}
	return n
}

// recoverSingle reopens the store into a fresh owner and server
// (recoveries times), then serves the recovered server and sweeps it
// with a new verifying client against the model.
func recoverSingle(b *run, st *stack) error {
	r := st.rels[0]
	var fresh *core.System
	for i := 0; i < recoveries; i++ {
		runtime.GC()
		sw := startWatch()
		store, err := wal.Open(r.dir, walOptions)
		if err != nil {
			return err
		}
		sys, err := core.NewSystemWithRand(newScheme(), core.DefaultConfig(), keyReader(b.seed, 0), core.WithShards(shards))
		if err == nil {
			_, err = store.Recover(sys.DA, sys.QS)
		}
		b.recovered(sw)
		if err != nil {
			store.Close()
			return fmt.Errorf("recover: %w", err)
		}
		if i < recoveries-1 {
			if err := store.Close(); err != nil {
				return err
			}
			continue
		}
		r.store, fresh = store, sys
	}
	r.da, r.qs = fresh.DA, fresh.QS
	if err := b.enableCache(r.qs); err != nil {
		return err
	}
	if err := b.serve(st, r.qs, r.pub, nil); err != nil {
		return err
	}
	if _, err := st.cl.SyncSummaries(0); err != nil {
		return fmt.Errorf("recovered log-in sync: %w", err)
	}
	b.sweeping = true
	for _, q := range sweepRanges(r.m.keys) {
		b.readBatch(st, r, []core.Range{q}, nil)
	}
	return nil
}

// sweepRanges tiles the whole key domain with contiguous ranges of
// about sweepChunk model keys each, so a record the model lacks is
// caught wherever it sits.
func sweepRanges(keys []int64) []core.Range {
	const sweepChunk = 128
	var out []core.Range
	for at := 0; at < len(keys); at += sweepChunk {
		lo, hi := keys[at], int64(1)<<62
		if at == 0 {
			lo = 0
		}
		if next := at + sweepChunk; next < len(keys) {
			hi = keys[next] - 1
		}
		out = append(out, core.Range{Lo: lo, Hi: hi})
	}
	return out
}
