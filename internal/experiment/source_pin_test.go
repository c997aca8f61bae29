package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// sourcePinDigest is the sha256 of the marshalled Results of
// sourcePinConfigs. It pins every path a prefetch candidate takes from
// its source into the cache: the oracle policy with and without the
// monotone cursor, each on-the-fly predictor, demotes of failed
// prefetch fills, and takeover reads.
const sourcePinDigest = "dda8bfcccfd752aa1482211fe252b8120aadfdb051e5590876554ca551be1b57"

// sourcePinConfigs lists the pinned configurations at TestScale:
//   - the six patterns × the four candidate sources × sync each, none
//     and portion;
//   - each of those again under transient read errors and a disk kill,
//     so failed prefetch fills reach the cache's demote hook;
//   - the local patterns × the four sources with a processor kill and
//     a barrier timeout, so survivors run takeover reads;
//   - LeadKinds × leads 0, 30 and 90, where a lead turns the oracle's
//     monotone cursor off.
func sourcePinConfigs() []core.Config {
	opts := TestScale()
	sources := []prefetch.Kind{prefetch.Oracle, prefetch.OBL, prefetch.SEQ, prefetch.GAPS}
	syncs := []barrier.Style{barrier.EveryNPerProc, barrier.None, barrier.PerPortion}
	var cfgs []core.Config
	for _, faulted := range []bool{false, true} {
		for _, kind := range pattern.Kinds {
			for _, src := range sources {
				for _, s := range syncs {
					cfg := opts.Config(kind, s, false, true)
					cfg.Predictor = src
					if faulted {
						cfg.Fault = fault.Config{ReadErrorRate: 0.05, KillAt: 200 * sim.Millisecond, KillDisk: 1}
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	for _, kind := range pattern.Kinds {
		if !kind.Local() {
			continue
		}
		for _, src := range sources {
			cfg := opts.Config(kind, barrier.EveryNPerProc, false, true)
			cfg.Predictor = src
			cfg.NodeFault = fault.NodeConfig{KillAt: 100 * sim.Millisecond, KillNode: 2, BarrierTimeout: 50 * sim.Millisecond}
			cfgs = append(cfgs, cfg)
		}
	}
	for _, kind := range LeadKinds {
		for _, lead := range []int{0, 30, 90} {
			cfg := opts.Config(kind, barrier.EveryNPerProc, false, true)
			cfg.Lead = lead
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestCandidateSourcesPinned runs sourcePinConfigs and checks the
// digest of their Results. The takeover and failed-fill cells must
// exercise what they are there for, or the pin would not cover them.
func TestCandidateSourcesPinned(t *testing.T) {
	cfgs := sourcePinConfigs()
	results := runAll(TestScale(), cfgs)
	var takeovers int
	var failedPrefetches int64
	for _, r := range results {
		takeovers += r.Faults.Node.TakeoverReads
		failedPrefetches += r.Cache.FailedPrefetchFills
	}
	if takeovers == 0 || failedPrefetches == 0 {
		t.Fatalf("takeover reads %d, failed prefetch fills %d: want both positive", takeovers, failedPrefetches)
	}
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != sourcePinDigest {
		t.Fatalf("%d candidate-source runs: digest %s, want %s", len(cfgs), got, sourcePinDigest)
	}
}
