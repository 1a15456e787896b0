package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// pointSchema versions the on-disk CachedPoint encoding. Bump it when the
// JSON layout changes incompatibly; decoded records with a different schema
// are treated as cache misses, never as errors.
const pointSchema = 1

// CachedPoint is the durable outcome of one design point — either a
// completed simulation result or a classified terminal failure. It is what
// the result store persists under the point's PointKey, so a restarted
// service replays failures as cheaply as successes instead of re-simulating
// known-poisoned configs.
type CachedPoint struct {
	Schema int `json:"schema"`
	// Aborted marks a robustness-layer abort (soc.ErrAborted): Kind holds
	// the soc.AbortKind label, Err the abort message, Attempts how many
	// runs the retry policy spent. Result is nil. A completed point records
	// Attempts only when it needed a retry, so fault-free records keep
	// their encoding.
	Aborted  bool   `json:"aborted,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Result is the completed simulation result; its Config.Obs is always
	// nil (observers don't serialize and are not part of the point's
	// identity).
	Result *soc.RunResult `json:"result,omitempty"`
}

// EncodePoint serializes a cached point. The result's observer attachment is
// stripped from the stored copy — it holds live callbacks — without mutating
// the caller's RunResult.
func EncodePoint(cp *CachedPoint) ([]byte, error) {
	enc := *cp
	enc.Schema = pointSchema
	if enc.Result != nil && enc.Result.Config.Obs != nil {
		res := *enc.Result
		res.Config.Obs = nil
		enc.Result = &res
	}
	return json.Marshal(&enc)
}

// DecodePoint parses an encoded point. ok is false (with a nil error) when
// the record was written by a different schema version.
func DecodePoint(data []byte) (*CachedPoint, bool, error) {
	var cp CachedPoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, false, fmt.Errorf("dse: decoding cached point: %w", err)
	}
	if cp.Schema != pointSchema {
		return nil, false, nil
	}
	return &cp, true, nil
}

// PointCache is what a sweep consults before simulating a design point and
// informs afterwards: a durable store (StoreCache), or a service's
// in-memory table that deduplicates concurrent callers. Implementations
// must be safe for concurrent use.
type PointCache interface {
	// Claim returns the known outcome for cfg, or nil to hand the point to
	// the caller, which must simulate it and Publish the outcome. Claim may
	// block while another caller simulates the same point; it returns an
	// error only when ctx ends first, and then the caller owns nothing.
	Claim(ctx context.Context, cfg soc.Config) (*CachedPoint, error)
	// Publish records the outcome of a point the caller claimed. A nil
	// outcome (a genuine simulation error, or a run cut short by
	// cancellation) releases the claim and caches nothing.
	Publish(cfg soc.Config, cp *CachedPoint)
	// Durable returns the result store backing the cache, or nil when
	// there is none; Search takes its fingerprint kernel and checkpoint
	// store from it.
	Durable() *StoreCache
}

// StoreCache adapts a result store to design-point lookups for one kernel:
// points are keyed by PointKey(Kernel, cfg), so the same store directory can
// hold points from many kernels (and the service's job manifests) without
// collisions.
type StoreCache struct {
	Kernel string
	Store  *store.Store
}

// Get looks up the cached outcome for cfg. A missing key, a schema mismatch,
// or an undecodable record all report ok=false; only store I/O surfaces as
// an error.
func (c *StoreCache) Get(cfg soc.Config) (*CachedPoint, bool, error) {
	data, ok, err := c.Store.Get(PointKey(c.Kernel, cfg))
	if err != nil || !ok {
		return nil, false, err
	}
	cp, ok, err := DecodePoint(data)
	if err != nil || !ok {
		// A corrupt or foreign-schema record is a miss: the point will be
		// re-simulated and the record overwritten.
		return nil, false, nil
	}
	return cp, true, nil
}

// Put persists the outcome for cfg, superseding any previous record.
func (c *StoreCache) Put(cfg soc.Config, cp *CachedPoint) error {
	data, err := EncodePoint(cp)
	if err != nil {
		return err
	}
	return c.Store.Put(PointKey(c.Kernel, cfg), data)
}

// Claim serves a stored outcome; anything else, a store I/O error included,
// is a miss. A store has no in-flight state, so Claim never blocks.
func (c *StoreCache) Claim(_ context.Context, cfg soc.Config) (*CachedPoint, error) {
	if cp, ok, err := c.Get(cfg); err == nil && ok {
		return cp, nil
	}
	return nil, nil
}

// Publish writes a fresh outcome through. A failed write is dropped: the
// point is simply simulated again next time.
func (c *StoreCache) Publish(cfg soc.Config, cp *CachedPoint) {
	if cp != nil {
		_ = c.Put(cfg, cp)
	}
}

// Durable returns c itself.
func (c *StoreCache) Durable() *StoreCache { return c }

// RetryPolicy bounds how a sweep retries an aborted design point before
// recording it as failed. Only fault-injection aborts are retried: the
// injector's give-up path is the operational analogue of a transient error
// (and the retry budget is how a service would ride out one). Stalls and
// sanitizer violations are deterministic properties of the config and fail
// immediately.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Backoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 1s.
	MaxBackoff time.Duration
}

// Retryable reports whether an abort of the given kind is worth another
// attempt under this policy.
func (p RetryPolicy) Retryable(kind string) bool {
	return p.Max > 0 && kind == soc.AbortFault
}

// Delay returns the backoff before retry number n (1-based).
func (p RetryPolicy) Delay(n int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	d := p.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// runPoint runs one design point under the retry policy. It returns the
// result, the number of attempts spent, and the final error (nil on
// success). The context bounds backoff sleeps: a cancellation during one
// returns ctx.Err(), since the abort it would retry is not the point's
// final outcome. A run itself is never interrupted mid-simulation.
func runPoint(ctx context.Context, r *soc.Runner, k *soc.Compiled, cfg soc.Config, p RetryPolicy) (*soc.RunResult, int, error) {
	attempts := 0
	for {
		attempts++
		res, err := r.Run(k, cfg)
		if err == nil {
			return res, attempts, nil
		}
		kind := soc.AbortKind(err)
		if kind == "" || !p.Retryable(kind) || attempts > p.Max {
			return nil, attempts, err
		}
		if d := p.Delay(attempts); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, attempts, ctx.Err()
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, attempts, err
		}
	}
}

// PointFailure describes one design point that could not be evaluated: the
// config, the failure class (a soc.Abort* label, or "error" for a
// non-abort simulation error), and how many attempts the retry policy spent.
type PointFailure struct {
	// Index is the point's position in the swept config slice.
	Index    int
	Cfg      soc.Config
	Kind     string
	Err      string
	Attempts int
}

// SweepIsolated evaluates every config like Sweep, but degrades any per-point
// failure — robustness-layer aborts and genuine simulation errors alike — to
// a PointFailure record instead of dropping it silently or failing the whole
// sweep. The returned space holds the surviving points (Pareto fronts and
// EDP ranking work over it as usual); the failure list enumerates the rest.
// Only a context cancellation fails the call.
//
// With SweepOptions.Cache set, previously stored outcomes (successes and
// classified failures) are served from the store and fresh outcomes are
// written through, so an interrupted sweep resumes from the last completed
// point when rerun against the same store.
func SweepIsolated(ctx context.Context, k *soc.Compiled, cfgs []soc.Config, opts SweepOptions) (Space, []PointFailure, error) {
	return sweepCore(ctx, k, cfgs, opts, true)
}
