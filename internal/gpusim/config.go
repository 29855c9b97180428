// Package gpusim is the dependency-driven GPU performance simulator of the
// paper's §4.1 (Tab. 2), rebuilt as a queueing/bandwidth timing model: SMs
// issue per-warp traces (compute gaps + coalesced memory accesses) through
// private L1s, a sectored shared L2, HBM2 channel queues and an NVLink
// model. Three memory modes reproduce Fig. 11's comparison: an ideal
// uncompressed large-memory GPU, bandwidth-only compression between L2 and
// DRAM, and full Buddy Compression (bandwidth compression + metadata cache
// + buddy-memory overflow accesses).
//
// A slower cycle-stepped "detailed" mode stands in for GPGPU-Sim and a
// first-order analytical model stands in for silicon in the Fig. 10
// correlation study.
package gpusim

import "buddy/internal/nvlink"

// Mode selects the memory-system configuration under test (Fig. 11).
type Mode int

// Modes of operation.
const (
	// ModeIdeal is the uncompressed large-capacity baseline GPU.
	ModeIdeal Mode = iota
	// ModeBWOnly compresses transfers between L2 and DRAM for bandwidth
	// only: no capacity benefit, no metadata, no buddy accesses (§4.1).
	ModeBWOnly
	// ModeBuddy is full Buddy Compression.
	ModeBuddy
)

// Tab. 2's fixed machine: a P100-class GPU whose geometry, cache sizes and
// hit latencies no figure varies. Its HBM2 memory is dram.DefaultConfig.
const (
	// SMs is the number of streaming multiprocessors.
	SMs = 56
	// WarpsPerSM is the resident warp count driving latency hiding (max 64
	// 32-thread warps per SM).
	WarpsPerSM = 64
	// L1Bytes/L1Ways: private L1 per SM, 128 B lines.
	L1Bytes, L1Ways = 24 << 10, 8
	// L2Bytes/L2Slices/L2Ways: shared sectored L2, 128 B lines.
	L2Bytes, L2Slices, L2Ways = 4 << 20, 32, 16
	// MetaCacheWays is the associativity of each slice's metadata cache
	// (4-way, with the §3.2 32 B metadata line that covers 64 entries).
	MetaCacheWays = 4

	l1LatencyCycles = 30  // L1 hit latency
	l2LatencyCycles = 190 // L2 hit latency
	// storeLatencyCycles is the warp-visible latency of a store (store
	// buffer); write bandwidth is drained asynchronously.
	storeLatencyCycles = 20
)

// Config holds what a figure or ablation varies around Tab. 2's machine.
type Config struct {
	// OpsPerWarp is the number of memory operations simulated per warp:
	// the trace length that sets run time (Fig. 10 sweeps it).
	OpsPerWarp int
	// Link is the buddy interconnect (NVLink2: 150 GB/s full-duplex;
	// Fig. 11 sweeps its bandwidth).
	Link nvlink.Config
	// MetaCacheBytesPerSlice is the metadata cache per L2 slice (4 KB).
	MetaCacheBytesPerSlice int
	// DecompressLatencyCycles is the (de)compression latency added to
	// compressed fills: 11 DRAM cycles at 875 MHz ≈ 16 core cycles at
	// 1.3 GHz (§4.1, following the BPC paper).
	DecompressLatencyCycles float64
}

// DefaultConfig returns Tab. 2.
func DefaultConfig() Config {
	return Config{
		OpsPerWarp:              160,
		Link:                    nvlink.DefaultConfig(),
		MetaCacheBytesPerSlice:  4 << 10,
		DecompressLatencyCycles: 16,
	}
}

// WithLinkBandwidth returns a copy of c with the buddy link set to gbps
// per direction (the Fig. 11 sweep parameter).
func (c Config) WithLinkBandwidth(gbps float64) Config {
	c.Link.BandwidthGBs = gbps
	return c
}

// Result summarizes one simulation.
type Result struct {
	// Cycles is the modeled execution time in core cycles.
	Cycles float64
	// Instructions approximates total warp instructions (memory ops
	// scaled by the trace's memory ratio), for IPC-style reporting.
	Instructions uint64
	// MemAccesses counts warp memory operations.
	MemAccesses uint64
	// L1Hits/L2Hits count cache hits.
	L1Hits, L2Hits uint64
	// DRAMBytes is total device-memory traffic.
	DRAMBytes uint64
	// LinkReadBytes/LinkWriteBytes is buddy interconnect traffic.
	LinkReadBytes, LinkWriteBytes uint64
	// MetaHits/MetaMisses count metadata cache lookups (Buddy mode).
	MetaHits, MetaMisses uint64
	// BuddyAccesses counts accesses that needed buddy-memory sectors.
	BuddyAccesses uint64
	// WallClockSeconds is the host time the simulation took (Fig. 10
	// speed study).
	WallClockSeconds float64
}
