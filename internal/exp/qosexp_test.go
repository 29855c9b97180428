package exp

import "testing"

// TestQoSIsolationAndShares pins the qos experiment's acceptance
// criteria at smoke scale: under a saturating batch mix the
// latency-sensitive tenant's modeled p99 stays within the SLO bound, the
// heavy batch tenant receives at least 90% of its weighted share of
// batch served bytes (plain round-robin would give it 1/n and fail), and
// the over-quota probe is refused with the typed error.
func TestQoSIsolationAndShares(t *testing.T) {
	res, err := QoS(16384)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.BatchTenants != QoSBatchTenants {
		t.Fatalf("ran %d shards, %d batch tenants; want 4, %d", res.Shards, res.BatchTenants, QoSBatchTenants)
	}
	if res.SLOCycles != QoSSLOCycles {
		t.Fatalf("SLO = %.0f, want %.0f", res.SLOCycles, float64(QoSSLOCycles))
	}
	if !res.QuotaRejected {
		t.Error("over-quota probe was not refused with ErrQuotaExceeded")
	}
	if res.Bursts == 0 {
		t.Fatal("latency tenant completed no bursts")
	}
	// The per-tenant telemetry must cover default + batch + latency.
	if want := 1 + res.BatchTenants + 1; len(res.Tenants) != want {
		t.Fatalf("%d tenant stats, want %d", len(res.Tenants), want)
	}
	var lat *struct{ p50, p99 float64 }
	for _, ts := range res.Tenants {
		if ts.Name == "latency" {
			lat = &struct{ p50, p99 float64 }{ts.Latency.P50, ts.Latency.P99}
			if ts.Latency.Count == 0 {
				t.Error("latency tenant has an empty distribution")
			}
			if ts.Rejected != 1 {
				t.Errorf("latency Rejected = %d, want 1 (the probe)", ts.Rejected)
			}
		}
	}
	if lat == nil {
		t.Fatal("no latency tenant in stats")
	}
	if !res.SLOMet {
		t.Errorf("latency p99 = %.0f modeled cycles, want <= %.0f (p50 %.0f)",
			lat.p99, res.SLOCycles, lat.p50)
	}
	if !res.ShareMet {
		t.Errorf("heavy batch share = %.3f, want >= 0.9 x entitled %.3f",
			res.HeavyShare, res.EntitledShare)
	}
	// The steady-window measurement converges, so over-service is as
	// diagnostic as starvation: a heavy share near 1.0 would mean the
	// light tenant's rings drained out of the window.
	if res.HeavyShare > 1.1*res.EntitledShare {
		t.Errorf("heavy batch share = %.3f, want <= 1.1 x entitled %.3f",
			res.HeavyShare, res.EntitledShare)
	}
	if res.EntitledShare != 0.75 {
		t.Errorf("entitled share = %.3f, want 0.75 for weights 3:1", res.EntitledShare)
	}
}
