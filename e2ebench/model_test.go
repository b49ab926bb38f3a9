package main

import (
	"testing"

	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// The model checks must bite: each test builds real answers with the
// program's own query path, shows the check passes against an exact
// model, then perturbs the model one way at a time and requires the
// check to fail.

func testRelation(t *testing.T, n int) (*core.System, *model) {
	t.Helper()
	sys, err := core.NewSystemWithRand(newScheme(), core.DefaultConfig(), keyReader(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := genKeys(stream(7, srcRecords), n)
	recs := genRecords(stream(7, srcValues), keys, 16)
	m := newModel()
	for _, r := range recs {
		m.put(r.Key, r.Attrs)
	}
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	return sys, m
}

func TestCheckRowsRejectsPerturbedModel(t *testing.T) {
	sys, m := testRelation(t, 32)
	lo, hi := m.keys[4], m.keys[12]+1 // hi is a free key
	ans, err := sys.QS.Query(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	recs := ans.Chain.Records
	if err := checkRows(m, lo, hi, recs, true); err != nil {
		t.Fatalf("exact model rejected: %v", err)
	}
	perturb := map[string]func(p *model){
		"value changed": func(p *model) { p.put(m.keys[7], [][]byte{[]byte("other")}) },
		"key missing":   func(p *model) { p.del(m.keys[8]) },
		"key extra":     func(p *model) { p.put(m.keys[9]+1, [][]byte{[]byte("new")}) },
		"first missing": func(p *model) { p.del(lo) },
		"last extra":    func(p *model) { p.put(hi, [][]byte{[]byte("new")}) },
	}
	for name, f := range perturb {
		p := m.clone()
		f(p)
		if err := checkRows(p, lo, hi, recs, true); err == nil {
			t.Errorf("%s: perturbed model accepted", name)
		}
	}
}

func TestCheckReadBackRejectsMissedWrites(t *testing.T) {
	sys, m := testRelation(t, 32)
	upd, del := m.keys[10], m.keys[11]
	for _, step := range []func() (*core.UpdateMsg, error){
		func() (*core.UpdateMsg, error) { return sys.DA.Update(upd, [][]byte{[]byte("v2")}, 5) },
		func() (*core.UpdateMsg, error) { return sys.DA.Delete(del, 6) },
	} {
		msg, err := step()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	ans, err := sys.QS.Query(m.keys[8], m.keys[14])
	if err != nil {
		t.Fatal(err)
	}
	recs := ans.Chain.Records
	if err := checkReadBack(recs, upd, opUpdate, 5); err != nil {
		t.Fatalf("visible update rejected: %v", err)
	}
	if err := checkReadBack(recs, del, opDelete, 6); err != nil {
		t.Fatalf("visible delete rejected: %v", err)
	}
	bad := map[string]error{
		"update newer than answered": checkReadBack(recs, upd, opUpdate, 7),
		"deleted key claimed kept":   checkReadBack(recs, upd, opDelete, 5),
		"insert not visible":         checkReadBack(recs, del, opInsert, 6),
	}
	for name, err := range bad {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckPlanRejectsPerturbedModel(t *testing.T) {
	in := genPlanInputs(7)
	_, o, i, err := newCatalog(7)
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine()
	for _, x := range []struct {
		rel  *core.Relation
		recs []*core.Record
	}{{o, in.orecs[:96]}, {i, in.irecs[:32]}} {
		msg, err := x.rel.DA.Load(x.recs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddRelation(x.rel.Name, x.rel.QS); err != nil {
			t.Fatal(err)
		}
	}
	om, im := newModel(), newModel()
	for _, r := range in.orecs[:96] {
		om.put(r.Key, r.Attrs)
	}
	for _, r := range in.irecs[:32] {
		im.put(r.Key, r.Attrs)
	}
	fc, err := i.DA.CertifyFilter(filterPart, filterBits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFilter("i", fc); err != nil {
		t.Fatal(err)
	}

	matchKey := im.keys[5] // an inner key, so matched
	spanLo, spanHi := om.keys[om.index(matchKey)-4], om.keys[om.index(matchKey)+4]
	missKey := om.keys[om.index(matchKey)+1] // every third outer key is inner
	for _, method := range []join.Method{join.BF, join.BV} {
		spec := &query.Spec{Rel: "o", Lo: spanLo, Hi: spanHi, Attrs: []int{0, 1},
			Join: &query.JoinSpec{Rel: "i", Method: method}}
		comp := execPlan(t, eng, spec)
		if err := checkPlan(om, im, spec, comp); err != nil {
			t.Fatalf("%v: exact models rejected: %v", method, err)
		}
		perturb := map[string]func(po, pi *model){
			"projected value changed": func(po, _ *model) { po.put(missKey, [][]byte{[]byte("x"), po.vals[missKey][1]}) },
			"outer key missing":       func(po, _ *model) { po.del(missKey) },
			"inner value changed":     func(_, pi *model) { pi.put(matchKey, [][]byte{[]byte("y")}) },
			"match lost":              func(_, pi *model) { pi.del(matchKey) },
			"match gained":            func(_, pi *model) { pi.put(missKey, [][]byte{[]byte("z")}) },
		}
		for name, f := range perturb {
			po, pi := om.clone(), im.clone()
			f(po, pi)
			if err := checkPlan(po, pi, spec, comp); err == nil {
				t.Errorf("%v: %s: perturbed model accepted", method, name)
			}
		}
	}
}

func execPlan(t *testing.T, eng *query.Engine, spec *query.Spec) *wire.Composite {
	t.Helper()
	plan, err := query.Plan(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return res.Comp
}

func TestSweepRangesTileTheDomain(t *testing.T) {
	_, m := testRelation(t, 300)
	rs := sweepRanges(m.keys)
	if rs[0].Lo > keyBase || rs[len(rs)-1].Hi < m.keys[len(m.keys)-1]+1_000_000 {
		t.Fatalf("sweep does not reach the ends of the domain: %v … %v", rs[0], rs[len(rs)-1])
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo != rs[i-1].Hi+1 {
			t.Fatalf("gap between sweep ranges %v and %v", rs[i-1], rs[i])
		}
	}
	// A key the model lacks, between two sweep ranges' boundary keys,
	// falls inside a swept range.
	extra := m.keys[128] - 1
	found := false
	for _, r := range rs {
		if extra >= r.Lo && extra <= r.Hi {
			found = true
		}
	}
	if !found {
		t.Fatal("a key between sweep ranges is not swept")
	}
}
