package nvlink

import (
	"math"
	"testing"
)

func TestFullDuplexIndependence(t *testing.T) {
	l := New(DefaultConfig())
	r1 := l.Request(0, Read, 1<<16)
	w1 := l.Request(0, Write, 1<<16)
	if r1 != w1 {
		t.Errorf("read (%.1f) and write (%.1f) directions must not contend", r1, w1)
	}
	r2 := l.Request(0, Read, 1<<16)
	if r2 <= r1 {
		t.Error("same-direction requests must queue")
	}
}

func TestBandwidthScaling(t *testing.T) {
	slow := New(Config{BandwidthGBs: 50, CoreClockGHz: 1.3, LatencyCycles: 0})
	fast := New(Config{BandwidthGBs: 200, CoreClockGHz: 1.3, LatencyCycles: 0})
	ts := slow.Request(0, Read, 1<<20)
	tf := fast.Request(0, Read, 1<<20)
	ratio := ts / tf
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4x bandwidth should be ~4x faster, got %.2fx", ratio)
	}
}

func TestPartialConfigDefaultsRateFields(t *testing.T) {
	// Only the bandwidth given (the Fig. 11 sweep style): the clock must
	// default so the link has a finite rate, and zero latency is honored.
	l := New(Config{BandwidthGBs: 50})
	done := l.Request(0, Read, 1<<20)
	if math.IsInf(done, 0) || math.IsNaN(done) || done <= 0 {
		t.Fatalf("partial config produced a degenerate link: done=%f", done)
	}
	full := New(Config{BandwidthGBs: 50, CoreClockGHz: 1.3})
	if got := full.Request(0, Read, 1<<20); got != done {
		t.Errorf("partial config = %f cycles, fully specified rates = %f", done, got)
	}
}
