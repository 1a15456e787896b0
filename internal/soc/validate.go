package soc

import (
	"fmt"

	"gem5aladdin/internal/sim"
)

// ConfigError reports one impossible design-point parameter. It is the
// typed error Validate returns, so sweep generators and CLIs can tell a
// malformed design point (skip it, print the offending field) apart from a
// simulation failure. Use errors.As to recover it through wrapping.
type ConfigError struct {
	Field  string // the Config field (or field group) at fault
	Value  any    // the rejected value
	Reason string // why it is impossible
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("soc: invalid config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Upper bounds for Config fields that hardware construction later narrows to
// uint32 (cache.Config.LineBytes at soc.go's cacheConfig, the bus's
// WidthBytes). Without them a huge value silently truncates — a 2^37-byte
// cache line becomes 0 — so Validate rejects anything past a bound that is
// already far beyond physical hardware yet comfortably inside uint32.
const (
	// maxCacheLineBytes caps a cache line at 1 MB.
	maxCacheLineBytes = 1 << 20
	// maxBusWidthBits caps the system bus at 8 KB per beat.
	maxBusWidthBits = 1 << 16
)

// Validate checks a configuration for impossible design points and returns
// a *ConfigError naming the offending field, or nil. Run, RunMulti, and
// RunRepeated all call it before constructing any hardware, so a bad
// parameter surfaces as a typed error at the API boundary rather
// than a panic deep inside bus or DRAM wiring; the CLIs call it right
// after flag parsing for the same reason.
func (c Config) Validate() error {
	switch c.Mem {
	case Isolated, DMA, Cache, Ideal:
	default:
		return &ConfigError{Field: "Mem", Value: uint8(c.Mem), Reason: "unknown memory kind"}
	}
	if c.Lanes <= 0 {
		return &ConfigError{Field: "Lanes", Value: c.Lanes, Reason: "datapath needs at least one lane"}
	}
	if c.Partitions <= 0 {
		return &ConfigError{Field: "Partitions", Value: c.Partitions, Reason: "scratchpad needs at least one bank"}
	}
	if c.SpadPorts <= 0 {
		return &ConfigError{Field: "SpadPorts", Value: c.SpadPorts, Reason: "scratchpad banks need at least one port"}
	}
	if c.AccelHz <= 0 {
		return &ConfigError{Field: "AccelHz", Value: c.AccelHz, Reason: "accelerator clock must be positive"}
	}
	if c.BusHz <= 0 {
		return &ConfigError{Field: "BusHz", Value: c.BusHz, Reason: "bus clock must be positive"}
	}
	if c.BusWidthBits <= 0 {
		return &ConfigError{Field: "BusWidthBits", Value: c.BusWidthBits, Reason: "bus width must be positive"}
	}
	if c.BusWidthBits%8 != 0 {
		return &ConfigError{Field: "BusWidthBits", Value: c.BusWidthBits, Reason: "bus width must be a whole number of bytes"}
	}
	if c.BusWidthBits > maxBusWidthBits {
		return &ConfigError{Field: "BusWidthBits", Value: c.BusWidthBits,
			Reason: fmt.Sprintf("bus width cannot exceed %d bits (would truncate at uint32 narrowing)", maxBusWidthBits)}
	}
	if err := c.validateFabric(); err != nil {
		return err
	}
	if c.DRAM.Banks <= 0 {
		return &ConfigError{Field: "DRAM.Banks", Value: c.DRAM.Banks, Reason: "DRAM needs at least one bank"}
	}
	if c.DRAM.RowBytes == 0 {
		return &ConfigError{Field: "DRAM.RowBytes", Value: c.DRAM.RowBytes, Reason: "DRAM row buffer must be non-empty"}
	}
	if c.DRAM.BytesPerNs <= 0 {
		return &ConfigError{Field: "DRAM.BytesPerNs", Value: c.DRAM.BytesPerNs, Reason: "DRAM pin bandwidth must be positive"}
	}
	if c.CPU.Clock.Period == 0 {
		return &ConfigError{Field: "CPU.Clock", Value: c.CPU.Clock.Period, Reason: "host CPU clock must be positive"}
	}
	if c.Traffic != nil {
		if c.Traffic.Period == 0 {
			return &ConfigError{Field: "Traffic.Period", Value: c.Traffic.Period, Reason: "background traffic period must be positive"}
		}
		if c.Traffic.Bytes == 0 {
			return &ConfigError{Field: "Traffic.Bytes", Value: c.Traffic.Bytes, Reason: "background traffic payload must be non-empty"}
		}
	}
	if err := c.validateFaults(); err != nil {
		return err
	}
	if c.Mem == Cache {
		if c.CacheKB <= 0 {
			return &ConfigError{Field: "CacheKB", Value: c.CacheKB, Reason: "cache size must be positive"}
		}
		if !powerOfTwo(c.CacheLineBytes) {
			return &ConfigError{Field: "CacheLineBytes", Value: c.CacheLineBytes, Reason: "cache line size must be a power of two"}
		}
		if c.CacheLineBytes > maxCacheLineBytes {
			return &ConfigError{Field: "CacheLineBytes", Value: c.CacheLineBytes,
				Reason: fmt.Sprintf("cache line cannot exceed %d bytes (would truncate at uint32 narrowing)", maxCacheLineBytes)}
		}
		if !powerOfTwo(c.CacheAssoc) {
			return &ConfigError{Field: "CacheAssoc", Value: c.CacheAssoc, Reason: "cache associativity must be a power of two"}
		}
		if c.CachePorts <= 0 {
			return &ConfigError{Field: "CachePorts", Value: c.CachePorts, Reason: "cache needs at least one port"}
		}
		if c.MSHRs <= 0 {
			return &ConfigError{Field: "MSHRs", Value: c.MSHRs, Reason: "cache needs at least one MSHR"}
		}
		// Residual geometry constraints (set count a power of two, lines
		// divisible by associativity) live with the cache model.
		if err := c.cacheConfig(sim.NewClockHz(c.AccelHz)).Validate(); err != nil {
			return &ConfigError{Field: "CacheKB/CacheLineBytes/CacheAssoc",
				Value:  fmt.Sprintf("%dKB/%dB/%d-way", c.CacheKB, c.CacheLineBytes, c.CacheAssoc),
				Reason: err.Error()}
		}
	}
	return nil
}

// validateFabric checks the interconnect topology block. Zero values are
// always legal (they defer to derived defaults); explicit values must be
// constructible.
func (c Config) validateFabric() error {
	f := c.Fabric
	switch f.Kind {
	case FabricBus, FabricCrossbar, FabricMesh:
	default:
		return &ConfigError{Field: "Fabric.Kind", Value: uint8(f.Kind), Reason: "unknown fabric kind"}
	}
	if f.LinkWidthBits != 0 {
		if f.LinkWidthBits < 0 || f.LinkWidthBits%8 != 0 {
			return &ConfigError{Field: "Fabric.LinkWidthBits", Value: f.LinkWidthBits, Reason: "link width must be a positive whole number of bytes"}
		}
		if f.LinkWidthBits > maxBusWidthBits {
			return &ConfigError{Field: "Fabric.LinkWidthBits", Value: f.LinkWidthBits,
				Reason: fmt.Sprintf("link width cannot exceed %d bits (would truncate at uint32 narrowing)", maxBusWidthBits)}
		}
	}
	if f.MeshDim != 0 && (f.MeshDim < 2 || f.MeshDim > 16) {
		return &ConfigError{Field: "Fabric.MeshDim", Value: f.MeshDim, Reason: "mesh side must be in [2,16]"}
	}
	if f.BurstLen != 0 && (f.BurstLen < 1 || f.BurstLen > 4096) {
		return &ConfigError{Field: "Fabric.BurstLen", Value: f.BurstLen, Reason: "burst length must be in [1,4096]"}
	}
	return nil
}

// validateFaults checks the fault-injection block: every probability must
// lie in [0,1], retry limits must be non-negative, and enabling bus NACKs
// requires a positive backoff (a zero backoff would retry at the same tick
// and livelock the arbiter).
func (c Config) validateFaults() error {
	f := c.Faults
	probs := []struct {
		field string
		v     float64
	}{
		{"Faults.DRAMBitProb", f.DRAMBitProb},
		{"Faults.SpadBitProb", f.SpadBitProb},
		{"Faults.CacheBitProb", f.CacheBitProb},
		{"Faults.DoubleBitFrac", f.DoubleBitFrac},
		{"Faults.BusNackProb", f.BusNackProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 || p.v != p.v {
			return &ConfigError{Field: p.field, Value: p.v, Reason: "probability must be in [0,1]"}
		}
	}
	if f.BusRetryLimit < 0 {
		return &ConfigError{Field: "Faults.BusRetryLimit", Value: f.BusRetryLimit, Reason: "retry limit cannot be negative"}
	}
	if f.DMARetries < 0 {
		return &ConfigError{Field: "Faults.DMARetries", Value: f.DMARetries, Reason: "retry limit cannot be negative"}
	}
	if f.BusNackProb > 0 && f.BusBackoff == 0 {
		return &ConfigError{Field: "Faults.BusBackoff", Value: f.BusBackoff, Reason: "bus NACK injection needs a positive backoff"}
	}
	return nil
}
