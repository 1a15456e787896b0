package serve

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
)

// entry is one content-addressed design point in the server's table: the
// unit of caching and of singleflight deduplication. The caller that claims
// a missing point creates its entry and simulates it; concurrent callers for
// the same point wait on done. After done closes, cp is immutable, so
// readers need no lock (channel close is the happens-before edge).
type entry struct {
	done chan struct{}
	// cp is the outcome, final once done closes: a completed result or a
	// classified abort. nil means the claimer released the point without an
	// outcome; the entry has then left the table and waiters claim again.
	cp *dse.CachedPoint

	// The claimer's simulate span and start time, touched only by the
	// claimer between Claim and Publish.
	span    *obs.Span
	started time.Time
}

// pointCache is one caller's view of the server's point table, for one
// kernel: the dse.PointCache that /sweep, grid jobs and search jobs hand to
// the dse engine. Every view shares the table, the durable store, the
// simulation slots and the counters; the view itself counts its caller's
// hits and, for a grid job, records each point's outcome by grid index as
// it resolves.
type pointCache struct {
	s       *Server
	kernel  string
	durable *dse.StoreCache
	// search marks a search job's view: its simulations also count as
	// serve.search.points.
	search bool
	// job and index, when set, route each resolved outcome to its grid
	// slot; grids are duplicate-free, so a key names one index.
	job   *job
	index map[string]int

	hits atomic.Int64
}

// view returns a fresh point-cache view for kernel.
func (s *Server) view(kernel string) *pointCache {
	c := &pointCache{s: s, kernel: kernel}
	if s.opt.Store != nil {
		c.durable = &dse.StoreCache{Kernel: kernel, Store: s.opt.Store}
	}
	return c
}

// Durable implements dse.PointCache.
func (c *pointCache) Durable() *dse.StoreCache { return c.durable }

// Claim implements dse.PointCache: a completed point, an in-flight one
// (joined, singleflight-style) or a stored one (warm hit) answers without a
// simulation. On a miss the caller waits for one of the server's simulation
// slots, then looks again: if another caller claimed the point meanwhile,
// it hands the slot back and joins that caller's entry. Only then does it
// create the in-flight entry, so a caller cancelled while waiting has
// created nothing. The caller's point span (carried by ctx) parents the
// cache-lookup, queue-wait and simulate spans.
func (c *pointCache) Claim(ctx context.Context, cfg soc.Config) (*dse.CachedPoint, error) {
	s := c.s
	key := dse.PointKey(c.kernel, cfg)
	ps := obs.SpanFromContext(ctx)
	ps.SetAttr("key", shortKey(key))
	for {
		lookup := ps.Child("cache-lookup")
		e := s.lookup(key)
		lookup.EndSpan()
		if e == nil {
			if err := s.acquireSlot(ctx, ps); err != nil {
				return nil, err
			}
			s.mu.Lock()
			if e = s.cache[key]; e == nil {
				s.cache[key] = &entry{done: make(chan struct{}),
					span: ps.Child("simulate"), started: time.Now()}
				s.mu.Unlock()
				s.cacheMisses.Add(1)
				return nil, nil
			}
			s.mu.Unlock()
			<-s.slots
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.cp != nil {
			s.cacheHits.Add(1)
			c.hits.Add(1)
			c.record(key, e.cp)
			return e.cp, nil
		}
		// Released without an outcome: claim the point afresh.
	}
}

// acquireSlot waits for one of the server-wide simulation slots, timed as
// the point's queue-wait span. A caller whose context ends first holds no
// slot.
func (s *Server) acquireSlot(ctx context.Context, ps *obs.Span) error {
	qs := ps.Child("queue-wait")
	defer qs.EndSpan()
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-s.slots
		return err
	}
	return nil
}

// lookup returns key's entry, complete or in flight. On a table miss it
// consults the durable store: a stored outcome, success or classified
// failure, materializes as a complete entry (a warm hit), so a restarted
// server warm-starts instead of re-simulating its history. nil means the
// point is unknown.
func (s *Server) lookup(key string) *entry {
	s.mu.Lock()
	e := s.cache[key]
	s.mu.Unlock()
	if e != nil || s.opt.Store == nil {
		return e
	}
	data, ok, _ := s.opt.Store.Get(key)
	if !ok {
		return nil
	}
	cp, decoded, _ := dse.DecodePoint(data)
	if !decoded {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.cache[key]; e != nil {
		return e // another caller got here first
	}
	e = &entry{done: make(chan struct{}), cp: cp}
	close(e.done)
	s.cache[key] = e
	s.finished(key)
	s.warmHits.Add(1)
	return e
}

// Publish implements dse.PointCache for a point this view claimed. The
// simulate span ends first, so it times the simulation alone and simulate
// spans never outnumber the slots. The outcome is then written through to
// the durable store before done closes, so once a waiter observes it, it
// survives a SIGKILL (modulo the store's fsync batching: only an OS crash
// can lose the unsynced tail). A nil outcome is not cached: the entry
// leaves the table and its waiters claim the point again.
func (c *pointCache) Publish(cfg soc.Config, cp *dse.CachedPoint) {
	s := c.s
	key := dse.PointKey(c.kernel, cfg)
	s.mu.Lock()
	e := s.cache[key]
	s.mu.Unlock()
	elapsed := time.Since(e.started)
	switch {
	case cp == nil:
		e.span.SetAttr("released", true)
	case cp.Aborted:
		e.span.SetAttr("aborted", true)
		e.span.SetAttr("kind", cp.Kind)
	default:
		e.span.SetAttr("cycles", cp.Result.Cycles)
	}
	e.span.EndSpan()

	if cp != nil && s.opt.Store != nil {
		if data, err := dse.EncodePoint(cp); err == nil {
			if perr := s.opt.Store.Put(key, data); perr != nil {
				if lg := s.opt.Logger; lg != nil {
					lg.Warn("store write failed", "key", shortKey(key), "err", perr.Error())
				}
			}
		}
	}
	s.pointsSimulated.Add(1)
	if c.search {
		s.searchPoints.Add(1)
	}
	if cp != nil && cp.Aborted {
		s.pointsAborted.Add(1)
	}
	if cp != nil && cp.Attempts > 1 {
		s.pointRetries.Add(uint64(cp.Attempts - 1))
	}

	s.mu.Lock()
	e.cp = cp
	if cp == nil {
		delete(s.cache, key)
	} else {
		s.finished(key)
	}
	close(e.done)
	s.mu.Unlock()
	<-s.slots
	c.record(key, cp)
	if lg := s.opt.Logger; lg != nil &&
		s.opt.SlowPoint > 0 && elapsed > s.opt.SlowPoint {
		lg.LogAttrs(context.Background(), slog.LevelWarn, "slow design point",
			slog.String("key", key),
			slog.Int64("elapsed_ms", elapsed.Milliseconds()),
			slog.Int("lanes", cfg.Lanes),
			slog.String("mem", cfg.Mem.String()))
	}
}

// record routes a resolved outcome to its grid job slot.
func (c *pointCache) record(key string, cp *dse.CachedPoint) {
	if c.job == nil || cp == nil {
		return
	}
	if i, ok := c.index[key]; ok {
		c.s.setOutcome(c.job, i, cp)
	}
}

// finished records a completed (cached) key for FIFO eviction and evicts the
// oldest completed points past the cache bound. Callers hold s.mu.
//
// Pops advance evictHead instead of reslicing: a reslice strands the
// consumed prefix in the backing array for the life of the server (append
// can never reuse it), so a long-lived server under sustained eviction
// would retain one slot per point ever evicted. The head region is
// compacted away once it dominates the slice.
func (s *Server) finished(key string) {
	s.evictOrder = append(s.evictOrder, key)
	for len(s.evictOrder)-s.evictHead > s.opt.CacheEntries {
		victim := s.evictOrder[s.evictHead]
		s.evictOrder[s.evictHead] = "" // release the key string
		s.evictHead++
		delete(s.cache, victim)
	}
	if s.evictHead > 64 && s.evictHead*2 > len(s.evictOrder) {
		n := copy(s.evictOrder, s.evictOrder[s.evictHead:])
		clear(s.evictOrder[n:])
		s.evictOrder = s.evictOrder[:n]
		s.evictHead = 0
	}
}

// shortKey abbreviates a content-addressed point key for span attributes
// and log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// kernelFor resolves a kernel name to its (cached) compiled artifact.
// Building a trace is expensive — the kernel executes functionally while
// tracing — and compiling derives the shared scheduling products, so both
// happen once per kernel per server, concurrency-safe via sync.Once; every
// design point then shares the one read-only artifact.
func (s *Server) kernelFor(kernel string) (*soc.Compiled, error) {
	s.gmu.Lock()
	ge, ok := s.graphs[kernel]
	if !ok {
		ge = &graphEntry{}
		s.graphs[kernel] = ge
	}
	s.gmu.Unlock()
	ge.once.Do(func() {
		tr, err := s.opt.BuildKernel(kernel)
		if err != nil {
			ge.err = err
			return
		}
		ge.k = soc.Compile(ddg.Build(tr))
	})
	return ge.k, ge.err
}

type graphEntry struct {
	once sync.Once
	k    *soc.Compiled
	err  error
}
