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

import (
	"buddy/internal/dram"
	"buddy/internal/nvlink"
)

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

// Config mirrors Tab. 2's performance simulation parameters.
type Config struct {
	// SMs is the number of streaming multiprocessors (P100-class: 56).
	SMs int
	// WarpsPerSM is the resident warp count driving latency hiding
	// (Tab. 2: max 64 32-thread warps per SM).
	WarpsPerSM int
	// OpsPerWarp is the number of memory operations simulated per warp.
	OpsPerWarp int

	// L1Bytes/L1Ways: private L1 per SM (24 KB, 128 B lines).
	L1Bytes, L1Ways int
	// L1LatencyCycles is the L1 hit latency.
	L1LatencyCycles float64

	// L2Bytes/L2Slices/L2Ways: shared sectored L2 (4 MB, 32 slices,
	// 128 B lines, 16 ways).
	L2Bytes, L2Slices, L2Ways int
	// L2LatencyCycles is the L2 hit latency.
	L2LatencyCycles float64

	// DRAM is the HBM2 model (32 channels, 900 GB/s).
	DRAM dram.Config
	// Link is the buddy interconnect (NVLink2: 150 GB/s full-duplex).
	Link nvlink.Config

	// DecompressLatencyCycles is the (de)compression latency added to
	// compressed fills: 11 DRAM cycles at 875 MHz ≈ 16 core cycles at
	// 1.3 GHz (§4.1, following the BPC paper).
	DecompressLatencyCycles float64

	// MetaCacheBytesPerSlice/MetaCacheWays: metadata cache per L2 slice
	// (Tab. 2: 4 KB, 4-way, 128 B lines in the table; we keep the §3.2
	// 32 B metadata line that covers 64 entries).
	MetaCacheBytesPerSlice, MetaCacheWays int

	// StoreLatencyCycles is the warp-visible latency of a store (store
	// buffer); write bandwidth is drained asynchronously.
	StoreLatencyCycles float64
}

// DefaultConfig returns Tab. 2.
func DefaultConfig() Config {
	return Config{
		SMs:                     56,
		WarpsPerSM:              64,
		OpsPerWarp:              160,
		L1Bytes:                 24 << 10,
		L1Ways:                  8,
		L1LatencyCycles:         30,
		L2Bytes:                 4 << 20,
		L2Slices:                32,
		L2Ways:                  16,
		L2LatencyCycles:         190,
		DRAM:                    dram.DefaultConfig(),
		Link:                    nvlink.DefaultConfig(),
		DecompressLatencyCycles: 16,
		MetaCacheBytesPerSlice:  4 << 10,
		MetaCacheWays:           4,
		StoreLatencyCycles:      20,
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
