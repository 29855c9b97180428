package exp

import "testing"

// TestHealRecovery pins the heal experiment's acceptance criteria: round B
// starts with one of four shards dead and retries against it until the
// experiment rebuilds the shard; the round must finish without error and
// leave every region holding the bytes it wrote over their complement, and
// after recovery the pool serves at least 90% of its pre-failure modeled
// throughput. Smoke scale keeps the test in CI budget; the modeled metric
// is scale-free.
func TestHealRecovery(t *testing.T) {
	res, err := Heal(16384)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.Clients != ServeClients {
		t.Fatalf("ran %d clients on %d shards, want %d on 4", res.Clients, res.Shards, ServeClients)
	}
	if res.BaselineGBs <= 0 || res.FailureGBs <= 0 || res.RecoveredGBs <= 0 {
		t.Fatalf("degenerate round throughputs: %+v", res)
	}
	if res.Retried == 0 {
		t.Error("round B never retried against the killed shard")
	}
	if res.LostBytes != 0 {
		t.Errorf("round B left %d resident bytes unwritten, want 0", res.LostBytes)
	}
	if res.RecoveryRatio < 0.9 {
		t.Errorf("post-recovery throughput is %.0f%% of baseline, want >= 90%%",
			res.RecoveryRatio*100)
	}
	if res.RebuiltEntries == 0 || res.RebuiltBytes == 0 {
		t.Errorf("rebuild moved nothing (entries=%d bytes=%d); the killed shard held residents",
			res.RebuiltEntries, res.RebuiltBytes)
	}
}
