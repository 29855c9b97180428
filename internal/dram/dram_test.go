package dram

import "testing"

func TestBandwidthServiceTime(t *testing.T) {
	cfg := DefaultConfig()
	h := New()
	perChan := cfg.BandwidthGBs / cfg.CoreClockGHz / float64(cfg.Channels)
	done := h.Request(0, 0, 128)
	want := 128/perChan + cfg.LatencyCycles
	if done < want*0.999 || done > want*1.001 {
		t.Errorf("service time %.2f, want %.2f", done, want)
	}
}

func TestQueueingDelay(t *testing.T) {
	h := New()
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
	h := New()
	if h.Channel(0) == h.Channel(256) {
		t.Error("adjacent 256 B blocks should interleave to different channels")
	}
	if h.Channel(0) != h.Channel(255) {
		t.Error("same 256 B block must map to one channel")
	}
}
