package dram

import (
	"math"
	"testing"
)

func TestBandwidthServiceTime(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	perChan := cfg.BandwidthGBs / cfg.CoreClockGHz / float64(cfg.Channels)
	done := h.Request(0, 0, 128)
	want := 128/perChan + cfg.LatencyCycles
	if done < want*0.999 || done > want*1.001 {
		t.Errorf("service time %.2f, want %.2f", done, want)
	}
}

func TestQueueingDelay(t *testing.T) {
	h := New(DefaultConfig())
	first := h.Request(0, 0, 4096)
	second := h.Request(0, 0, 4096) // same channel: must queue
	if second <= first {
		t.Errorf("second request (%.1f) should finish after first (%.1f)", second, first)
	}
	// A different channel is independent.
	other := h.Request(0, 256, 4096)
	if other != first {
		t.Errorf("independent channel should match first request's time: %.1f vs %.1f", other, first)
	}
}

func TestChannelHash(t *testing.T) {
	h := New(DefaultConfig())
	if h.Channel(0) == h.Channel(256) {
		t.Error("adjacent 256 B blocks should interleave to different channels")
	}
	if h.Channel(0) != h.Channel(255) {
		t.Error("same 256 B block must map to one channel")
	}
}

func TestInvalidConfigFallsBack(t *testing.T) {
	h := New(Config{})
	if h.Request(0, 0, 128) <= 0 {
		t.Error("zero config should fall back to defaults")
	}
}

func TestPartialConfigKeepsExplicitFields(t *testing.T) {
	// A Fig. 11-style sweep passes only the bandwidth; the old New replaced
	// the whole config with DefaultConfig (silently restoring 900 GB/s).
	h := New(Config{BandwidthGBs: 450})
	if h.cfg.BandwidthGBs != 450 {
		t.Fatalf("explicit bandwidth discarded: got %v GB/s, want 450", h.cfg.BandwidthGBs)
	}
	if h.cfg.Channels != 32 || h.cfg.CoreClockGHz != 1.3 {
		t.Errorf("zero fields should default to Tab. 2: channels=%d clock=%v",
			h.cfg.Channels, h.cfg.CoreClockGHz)
	}
	// Halving the bandwidth must double the per-channel service time.
	full := New(DefaultConfig())
	if got, want := h.Request(0, 0, 4096)-h.cfg.LatencyCycles,
		2*(full.Request(0, 0, 4096)-full.cfg.LatencyCycles); math.Abs(got-want) > 1e-9*want {
		t.Errorf("450 GB/s service time %.2f, want %.2f (2x the 900 GB/s time)", got, want)
	}
}
