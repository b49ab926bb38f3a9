package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"authdb/internal/anscache"
	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wal"
)

// walOptions is the flush policy of every store the benchmark opens:
// full write-ahead durability, one fsync per append, on every run.
var walOptions = wal.Options{GroupCommit: 0}

const (
	shards     = 64       // query-server key-range shards (answer-cache epoch granularity)
	cacheBytes = 64 << 20 // answer-cache budget; every workload's hot set fits
)

// newScheme is the signature scheme of every party: BAS with the
// emulated pairing at zero cost, as in the repository's own serving
// benchmarks. Each party gets its own instance so that the client's
// verification caches start cold and count only client work.
func newScheme() sigagg.Scheme { return bas.New(0) }

// rel is one relation's owner, WAL store and query server.
type rel struct {
	name    string
	da      *core.DataAggregator
	qs      *core.QueryServer
	pub     sigagg.PublicKey
	store   *wal.Store
	dir     string
	m       *model
	inWAL   int64 // log bytes appended since set-up, closed segments included
	walMark int64 // log bytes on disk at the last mark
}

// deliver makes one owner message durable in the relation's WAL, then
// applies it to the query server.
func (b *run) deliver(r *rel, msg *core.UpdateMsg, parent uint64) error {
	s := b.tr.begin("wal.append", parent)
	_, err := r.store.AppendMsg(msg)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: wal append: %w", r.name, err)
	}
	s = b.tr.begin("core.qs_apply", parent)
	err = r.qs.Apply(msg)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: apply: %w", r.name, err)
	}
	return nil
}

// logBytes is the size of the relation's log segments on disk.
func (r *rel) logBytes() (int64, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal-") || !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// markWAL folds the log growth since the last mark into inWAL. Called
// around every truncation, so bytes in dropped segments still count.
func (r *rel) markWAL(fold bool) error {
	n, err := r.logBytes()
	if err != nil {
		return err
	}
	if fold {
		r.inWAL += n - r.walMark
	}
	r.walMark = n
	return nil
}

// snapshot captures the relation and truncates its log.
func (b *run) snapshot(r *rel, parent uint64) error {
	if err := r.markWAL(true); err != nil {
		return err
	}
	s := b.tr.begin("wal.snapshot", parent)
	snap, err := wal.Capture(r.da, r.qs, r.store.LastLSN(), b.ts)
	if err == nil {
		err = r.store.WriteSnapshot(snap)
	}
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: snapshot: %w", r.name, err)
	}
	return r.markWAL(false)
}

// closePeriod certifies the relation's current ρ-period summary.
func (b *run) closePeriod(r *rel, parent uint64) error {
	b.ts++
	s := b.tr.begin("core.da_close_period", parent)
	msg, err := r.da.ClosePeriod(b.ts)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: close period: %w", r.name, err)
	}
	return b.deliver(r, msg, parent)
}

// openStore opens a fresh store directory for a relation.
func (b *run) openStore(r *rel) error {
	dir, err := os.MkdirTemp(b.workDir, r.name+"-")
	if err != nil {
		return err
	}
	r.dir = dir
	r.store, err = wal.Open(dir, walOptions)
	return err
}

// load signs the initial relation, logs and applies it, and closes the
// first period so clients hold a summary anchoring every record.
func (b *run) load(r *rel, recs []*core.Record) error {
	s := b.tr.begin("core.da_load", 0)
	msg, err := r.da.Load(recs, 1)
	b.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: load: %w", r.name, err)
	}
	if err := b.deliver(r, msg, 0); err != nil {
		return err
	}
	if b.ts < 1 {
		b.ts = 1
	}
	return b.closePeriod(r, 0)
}

// stack is one running system: relations, the network server on
// loopback, and one verifying client connection.
type stack struct {
	rels   []*rel
	eng    *query.Engine
	srv    *server.NetServer
	served chan error
	cl     *client.Client
	cliSch sigagg.Scheme // the client's scheme instance (its verify caches)
}

// serve starts the network server for qs (and eng, when planning) on a
// loopback port and dials the verifying client.
func (b *run) serve(st *stack, qs *core.QueryServer, pub sigagg.PublicKey, rels map[string]sigagg.PublicKey) error {
	st.srv = server.NewNetServer(qs, server.NetConfig{MaxConns: 4})
	if st.eng != nil {
		if b.tr != nil {
			st.srv.EnablePlans(tracedEngine{Engine: st.eng, t: b.tr})
		} else {
			st.srv.EnablePlans(st.eng)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if b.tr != nil {
		ln = tracedListener{Listener: ln, t: b.tr}
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.cliSch = newScheme()
	st.cl, err = client.Dial(addr, client.Config{
		Scheme:         st.cliSch,
		Pub:            pub,
		Relations:      rels,
		DialTimeout:    5 * time.Second,
		RequestTimeout: time.Minute,
		VerifyWorkers:  1,
	})
	return err
}

// enableCache attaches the answer cache with the production codec,
// wrapped when tracing.
func (b *run) enableCache(qs *core.QueryServer) error {
	codec := server.Codec()
	if b.tr != nil {
		codec = tracedCodec(b.tr, codec)
	}
	return qs.EnableAnswerCache(codec, anscache.WithMaxBytes(cacheBytes))
}

// stopNet closes the client and drains the server.
func (st *stack) stopNet() {
	if st.cl != nil {
		st.cl.Close()
		st.cl = nil
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st.srv.Shutdown(ctx)
		cancel()
		<-st.served
		st.srv = nil
	}
}

// close stops the network side and closes every store.
func (st *stack) close() error {
	st.stopNet()
	var first error
	for _, r := range st.rels {
		if r.store != nil {
			if err := r.store.Close(); err != nil && first == nil {
				first = err
			}
			r.store = nil
		}
	}
	return first
}

// discard closes the stack and removes its stores.
func (st *stack) discard() {
	st.close()
	for _, r := range st.rels {
		os.RemoveAll(r.dir)
	}
}

// keyReader is the deterministic key-generation entropy of one
// relation: recovery re-derives the same owner key from it.
func keyReader(seed int64, relIdx int64) *rand.Rand {
	return stream(seed, srcKeys*100+relIdx)
}

// workDir creates the run's scratch directory inside the checkout.
func makeWorkDir() (string, error) {
	base := filepath.Join(".bench_build", "e2ebench-work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
