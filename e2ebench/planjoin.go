package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/wal"
	"authdb/internal/wire"
)

// plan-join: a two-relation catalog. The outer relation "o" signs its
// two attributes separately (projection mode); the inner relation "i"
// holds every third outer key and carries a certified Bloom filter at
// few bits per key, so false positives force boundary fallbacks. Zipf
// draws from a fixed catalog of σ, σ/π, BF-join and BV-join specs run
// through client.QueryPlan. Each round is plansPerRound plans and one
// write, alternating between an outer update and an inner update,
// insert or delete; every planCloseEvery writes close both relations'
// periods and re-certify the filter, which is also re-certified after
// every change to the inner key set, and every planSnapEvery writes
// snapshot both stores.
const (
	nOuter         = 3072
	innerEvery     = 3 // the inner relation holds every innerEvery-th outer key
	planSpecs      = 192
	planWidth      = 16 // outer keys per σ range
	plansPerRound  = 6
	planCloseEvery = 8
	planSnapEvery  = 128
	filterBits     = 2.0 // Bloom bits per key: low on purpose
	filterPart     = 64  // keys per filter partition
	outerAttr0     = 32  // bytes of the outer relation's first attribute
	outerAttr1     = 224 // and of its second
	innerAttr      = 64
)

var planJoin = &workload{
	name:            "plan-join",
	roundsPerSecond: 95,
	blockRounds:     planSnapEvery,
	setup:           setupPlan,
	loop: func(b *run, st *stack, rounds int) {
		outer, inner := st.rels[0], st.rels[1]
		specs := specCatalog(stream(b.seed, srcCatalog), outer.m.keys)
		ops := stream(b.seed, srcOps)
		vals := stream(b.seed, srcValues)
		z := newZipf(ops, len(specs))
		maint := func(parent uint64) error {
			if b.writes%planCloseEvery == 0 {
				if err := b.closePeriod(outer, parent); err != nil {
					return err
				}
				if err := b.closePeriod(inner, parent); err != nil {
					return err
				}
				if err := b.certifyFilter(st, inner, parent); err != nil {
					return err
				}
			}
			if b.writes%planSnapEvery == 0 {
				if err := b.snapshot(outer, parent); err != nil {
					return err
				}
				return b.snapshot(inner, parent)
			}
			return nil
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < plansPerRound; i++ {
				b.plan(st, specs[z.next()])
			}
			near := specs[z.next()]
			if round%2 == 0 {
				keys := outer.m.span(near.Lo, near.Hi)
				key := keys[ops.Intn(len(keys))]
				attrs := [][]byte{genValue(vals, outerAttr0), genValue(vals, outerAttr1)}
				b.write(outer, opUpdate, key, attrs, maint)
				b.roundDone()
				continue
			}
			kind, key := innerOp(ops, outer.m, inner.m, near)
			var attrs [][]byte
			if kind != opDelete {
				attrs = [][]byte{genValue(vals, innerAttr)}
			}
			b.write(inner, kind, key, attrs, func(parent uint64) error {
				if kind != opUpdate {
					// The filter must cover the new key set before the
					// next BF join.
					if err := b.certifyFilter(st, inner, parent); err != nil {
						return err
					}
				}
				return maint(parent)
			})
			b.roundDone()
		}
	},
	recover: recoverPlan,
}

// specCatalog builds the fixed plan catalog: planWidth-key σ ranges at
// uniform positions, cycling through plain σ, σ/π, BF join and BV join.
func specCatalog(rng *rand.Rand, keys []int64) []*query.Spec {
	specs := make([]*query.Spec, planSpecs)
	for i := range specs {
		s := rng.Intn(len(keys) - planWidth + 1)
		spec := &query.Spec{Rel: "o", Lo: keys[s], Hi: keys[s+planWidth-1]}
		switch i % 4 {
		case 1:
			spec.Attrs = []int{0}
		case 2:
			spec.Attrs = []int{0, 1}
			spec.Join = &query.JoinSpec{Rel: "i", Method: join.BF}
		case 3:
			spec.Attrs = []int{1}
			spec.Join = &query.JoinSpec{Rel: "i", Method: join.BV}
		}
		specs[i] = spec
	}
	return specs
}

// innerOp draws one inner write near a hot spec: an update or delete
// of an inner key, or the insert of an outer key the inner relation
// lacks (so the inner keys stay a subset of the outer ones), falling
// back to the whole relation when the spec's range has no candidate.
func innerOp(rng *rand.Rand, outer, inner *model, near *query.Spec) (opKind, int64) {
	var have, lack []int64
	for _, k := range outer.span(near.Lo, near.Hi) {
		if inner.has(k) {
			have = append(have, k)
		} else {
			lack = append(lack, k)
		}
	}
	kind := opKind(rng.Intn(3))
	switch kind {
	case opInsert:
		if len(lack) > 0 {
			return kind, lack[rng.Intn(len(lack))]
		}
		for {
			if k := outer.keys[rng.Intn(len(outer.keys))]; !inner.has(k) {
				return kind, k
			}
		}
	default:
		if len(have) > 0 {
			return kind, have[rng.Intn(len(have))]
		}
		return kind, inner.keys[rng.Intn(len(inner.keys))]
	}
}

// certifyFilter re-certifies the inner relation's Bloom filter and
// installs it in the plan engine.
func (b *run) certifyFilter(st *stack, inner *rel, parent uint64) error {
	s := b.tr.begin("core.da_certify_filter", parent)
	fc, err := inner.da.CertifyFilter(filterPart, filterBits, b.ts)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("certify filter: %w", err)
	}
	s = b.tr.begin("query.set_filter", parent)
	err = st.eng.SetFilter(inner.name, fc)
	b.tr.end(s)
	return err
}

// plan is one measured plan query: QueryPlan (fetch and full
// verification of the composite answer), then the model check.
func (b *run) plan(st *stack, spec *query.Spec) {
	root := b.tr.begin("bench.read", 0)
	defer b.tr.end(root)
	b.attempted++
	t0 := time.Now()
	s := b.tr.beginRequest("client.plan", root.ID)
	comp, err := st.cl.QueryPlan(spec)
	b.tr.end(s)
	lat := time.Since(t0).Nanoseconds()
	if err != nil {
		b.fail(1, err)
		return
	}
	if !b.sweeping {
		b.readNS = append(b.readNS, lat)
		b.answers++
	}
	if err := checkPlan(st.rels[0].m, st.rels[1].m, spec, comp); err != nil {
		b.mismatch(err)
	}
	if b.tr != nil && !b.sweeping {
		if core, err := wire.AppendCompositeCore(nil, comp); err == nil {
			b.coreB += int64(len(core))
		}
		b.tailB += int64(len(wire.AppendRelTails(nil, comp.Tails)))
	}
}

// planInputs are the generated relations of one plan-join set-up.
type planInputs struct {
	orecs, irecs []*core.Record
	om, im       *model
}

func genPlanInputs(seed int64) planInputs {
	keys := genKeys(stream(seed, srcRecords), nOuter)
	vr := stream(seed, srcValues+100)
	in := planInputs{om: newModel(), im: newModel()}
	for i, k := range keys {
		o := &core.Record{RID: uint64(i + 1), Key: k, Attrs: [][]byte{genValue(vr, outerAttr0), genValue(vr, outerAttr1)}}
		in.orecs = append(in.orecs, o)
		in.om.put(k, o.Attrs)
		if i%innerEvery == 0 {
			r := &core.Record{RID: uint64(len(in.irecs) + 1), Key: k, Attrs: [][]byte{genValue(vr, innerAttr)}}
			in.irecs = append(in.irecs, r)
			in.im.put(k, r.Attrs)
		}
	}
	return in
}

// newCatalog keys the two relations from the seed; recovery calls it
// again and gets the same owner keys.
func newCatalog(seed int64) (*core.Catalog, *core.Relation, *core.Relation, error) {
	cat, err := core.NewCatalog(newScheme(), core.DefaultConfig(), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	o, err := cat.AddRelation("o", keyReader(seed, 0), []core.DAOption{core.WithAttrSigning()}, []core.Option{core.WithShards(shards)})
	if err != nil {
		return nil, nil, nil, err
	}
	i, err := cat.AddRelation("i", keyReader(seed, 1), nil, []core.Option{core.WithShards(shards)})
	if err != nil {
		return nil, nil, nil, err
	}
	return cat, o, i, nil
}

// setupPlan builds the catalog stack, loads both relations, certifies
// the filter, and warms up with one pass over the spec catalog.
func setupPlan(b *run) (*stack, error) {
	in := genPlanInputs(b.seed)
	b.ts = 0

	runtime.GC() // the previous set-up's garbage is not this one's cost
	sw := startWatch()
	cat, o, i, err := newCatalog(b.seed)
	if err != nil {
		return nil, err
	}
	outer := &rel{name: "o", da: o.DA, qs: o.QS, pub: o.Pub, m: in.om}
	inner := &rel{name: "i", da: i.DA, qs: i.QS, pub: i.Pub, m: in.im}
	st := &stack{rels: []*rel{outer, inner}, eng: query.NewEngine()}
	var loadNS int64
	for _, x := range []struct {
		r    *rel
		recs []*core.Record
	}{{outer, in.orecs}, {inner, in.irecs}} {
		if err := b.openStore(x.r); err != nil {
			return st, err
		}
		t0 := time.Now()
		if err := b.load(x.r, x.recs); err != nil {
			return st, err
		}
		loadNS += time.Since(t0).Nanoseconds()
		if err := st.eng.AddRelation(x.r.name, x.r.qs); err != nil {
			return st, err
		}
	}
	if err := b.certifyFilter(st, inner, 0); err != nil {
		return st, err
	}
	if err := b.serve(st, outer.qs, outer.pub, cat.PublicKeys()); err != nil {
		return st, err
	}
	for _, spec := range specCatalog(stream(b.seed, srcCatalog), outer.m.keys) {
		comp, err := st.cl.QueryPlan(spec)
		if err != nil {
			return st, fmt.Errorf("warm-up: %w", err)
		}
		if err := checkPlan(outer.m, inner.m, spec, comp); err != nil {
			return st, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.setupDone(sw, loadNS)
	return st, nil
}

// recoverPlan reopens both stores into a fresh catalog (recoveries
// times), then serves it and sweeps every outer key with select-project
// BV-join plans — which, since the inner keys are a subset of the outer
// ones, cover both relations — against the models.
func recoverPlan(b *run, st *stack) error {
	outer, inner := st.rels[0], st.rels[1]
	for n := 0; n < recoveries; n++ {
		runtime.GC()
		sw := startWatch()
		_, o, i, err := newCatalog(b.seed)
		if err != nil {
			return err
		}
		var stores []*wal.Store
		for _, x := range []struct {
			r   *rel
			rel *core.Relation
		}{{outer, o}, {inner, i}} {
			s, err := wal.Open(x.r.dir, walOptions)
			if err != nil {
				closeAll(stores)
				return err
			}
			stores = append(stores, s)
			if _, err := s.Recover(x.rel.DA, x.rel.QS); err != nil {
				closeAll(stores)
				return fmt.Errorf("recover %s: %w", x.r.name, err)
			}
		}
		b.recovered(sw)
		if n < recoveries-1 {
			if err := closeAll(stores); err != nil {
				return err
			}
			continue
		}
		outer.store, inner.store = stores[0], stores[1]
		outer.da, outer.qs, inner.da, inner.qs = o.DA, o.QS, i.DA, i.QS
	}
	st.eng = query.NewEngine()
	for _, r := range st.rels {
		if err := st.eng.AddRelation(r.name, r.qs); err != nil {
			return err
		}
	}
	pubs := map[string]sigagg.PublicKey{outer.name: outer.pub, inner.name: inner.pub}
	if err := b.serve(st, outer.qs, outer.pub, pubs); err != nil {
		return err
	}
	b.sweeping = true
	for _, q := range sweepRanges(outer.m.keys) {
		b.plan(st, &query.Spec{Rel: "o", Lo: q.Lo, Hi: q.Hi, Attrs: []int{0, 1},
			Join: &query.JoinSpec{Rel: "i", Method: join.BV}})
	}
	return nil
}

func closeAll(stores []*wal.Store) error {
	var first error
	for _, s := range stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
