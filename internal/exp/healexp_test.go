package exp

import "testing"

// TestHealRecovery pins the heal experiment's acceptance criteria: after
// one of four shards is killed mid-serve, the pool recovers to at least
// 90% of its pre-failure modeled throughput with zero lost bytes, and the
// quiesced codec-matched migration leg does zero codec round-trips with
// symmetric migration accounting. Smoke scale keeps the test in CI budget;
// the modeled metric is scale-free.
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
	if res.RecoveryRatio < 0.9 {
		t.Errorf("post-recovery throughput is %.0f%% of baseline, want >= 90%%",
			res.RecoveryRatio*100)
	}
	if res.LostBytes != 0 {
		t.Errorf("recovery lost %d resident bytes, want 0", res.LostBytes)
	}
	if res.RebuiltEntries == 0 || res.RebuiltBytes == 0 {
		t.Errorf("rebuild moved nothing (entries=%d bytes=%d); the killed shard held residents",
			res.RebuiltEntries, res.RebuiltBytes)
	}
	if res.MigrateDecodes != 0 || res.MigrateEncodes != 0 {
		t.Errorf("codec-matched migration did %d decodes / %d encodes, want 0/0",
			res.MigrateDecodes, res.MigrateEncodes)
	}
	if res.MigrationBytesSrc == 0 || res.MigrationBytesSrc != res.MigrationBytesDst {
		t.Errorf("migration bytes src=%d dst=%d, want equal and nonzero",
			res.MigrationBytesSrc, res.MigrationBytesDst)
	}
}
