package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// traceDigests pins the first 16 hex digits of the sha256 of each
// run's WriteTo bytes. The values were generated on the goroutine
// engine, the processor implementation the cnode state machine
// replaced, so they hold the trace byte for byte across that change.
var traceDigests = map[string]string{
	"lfp/each/pf=false/faulted=false":    "51e88d635e455c06",
	"lfp/each/pf=false/faulted=true":     "1d4dc0fbb492ed15",
	"lfp/each/pf=true/faulted=false":     "3f25f5832bd72089",
	"lfp/each/pf=true/faulted=true":      "810ff8f488d5d2f2",
	"lfp/total/pf=false/faulted=false":   "99e226e832056b46",
	"lfp/total/pf=false/faulted=true":    "ec1a1bad91cdbeb3",
	"lfp/total/pf=true/faulted=false":    "58f8cefa67e065da",
	"lfp/total/pf=true/faulted=true":     "5e835c08ac87a924",
	"lfp/portion/pf=false/faulted=false": "6887cba772c1aab0",
	"lfp/portion/pf=false/faulted=true":  "a62fa5af09038fd9",
	"lfp/portion/pf=true/faulted=false":  "6d6c2e152dab846d",
	"lfp/portion/pf=true/faulted=true":   "44e1215678906c74",
	"lfp/none/pf=false/faulted=false":    "f6309520f9ca51b9",
	"lfp/none/pf=false/faulted=true":     "4dce65ba2d627459",
	"lfp/none/pf=true/faulted=false":     "c6ed913e017e8c06",
	"lfp/none/pf=true/faulted=true":      "8f30e70c7fe81c89",
	"lrp/each/pf=false/faulted=false":    "fad8b682705fcc6b",
	"lrp/each/pf=false/faulted=true":     "41f40e06337de1da",
	"lrp/each/pf=true/faulted=false":     "e4a8d99d5c119377",
	"lrp/each/pf=true/faulted=true":      "896a4c8b9f862955",
	"lrp/total/pf=false/faulted=false":   "b0a61853f282df84",
	"lrp/total/pf=false/faulted=true":    "39df354a6957008f",
	"lrp/total/pf=true/faulted=false":    "34cc9928597ee3e4",
	"lrp/total/pf=true/faulted=true":     "c206141ed7d7e168",
	"lrp/portion/pf=false/faulted=false": "7b3284f384caf240",
	"lrp/portion/pf=false/faulted=true":  "165b97ee1dc4f021",
	"lrp/portion/pf=true/faulted=false":  "ebcc47529880e92c",
	"lrp/portion/pf=true/faulted=true":   "f7bbd4c7fb5884f4",
	"lrp/none/pf=false/faulted=false":    "6f75e691e36dbebb",
	"lrp/none/pf=false/faulted=true":     "df7c086d931d89c2",
	"lrp/none/pf=true/faulted=false":     "ae7ea7e0ebccd403",
	"lrp/none/pf=true/faulted=true":      "361d767bcc4dc83b",
	"lw/each/pf=false/faulted=false":     "e8aadd31c0de6224",
	"lw/each/pf=false/faulted=true":      "62bfbb00a8bfabe4",
	"lw/each/pf=true/faulted=false":      "cfcaf7b9d43f31b2",
	"lw/each/pf=true/faulted=true":       "a75a587ea6989f9f",
	"lw/total/pf=false/faulted=false":    "30c1a6c02e1e698f",
	"lw/total/pf=false/faulted=true":     "789eaca16129f123",
	"lw/total/pf=true/faulted=false":     "e54013a8cf82335e",
	"lw/total/pf=true/faulted=true":      "2519161dc6c3c64b",
	"lw/portion/pf=false/faulted=false":  "074189e1f17fc482",
	"lw/portion/pf=false/faulted=true":   "dcd86722f04e9625",
	"lw/portion/pf=true/faulted=false":   "c2d70be06f322340",
	"lw/portion/pf=true/faulted=true":    "4e62bea67b9db9d6",
	"lw/none/pf=false/faulted=false":     "033e33a0a01ab280",
	"lw/none/pf=false/faulted=true":      "6a50761a02b3edf3",
	"lw/none/pf=true/faulted=false":      "e6f70bb162b022e3",
	"lw/none/pf=true/faulted=true":       "dc6fa46bc18bccd4",
	"gfp/each/pf=false/faulted=false":    "592b8c399cce0bb1",
	"gfp/each/pf=false/faulted=true":     "563959b2c741bd5a",
	"gfp/each/pf=true/faulted=false":     "6357c1c7e41ae010",
	"gfp/each/pf=true/faulted=true":      "bd508d779871d489",
	"gfp/total/pf=false/faulted=false":   "d4bc638f47e31c2d",
	"gfp/total/pf=false/faulted=true":    "5f0944c57cbae857",
	"gfp/total/pf=true/faulted=false":    "1d7da5e38ba13fad",
	"gfp/total/pf=true/faulted=true":     "0bc48d5637c0231c",
	"gfp/portion/pf=false/faulted=false": "c285bde293c129e5",
	"gfp/portion/pf=false/faulted=true":  "4b3521ad5ae23ead",
	"gfp/portion/pf=true/faulted=false":  "62b08343a1024930",
	"gfp/portion/pf=true/faulted=true":   "3b36bb4dbc19ee73",
	"gfp/none/pf=false/faulted=false":    "e2be30bbfe6c2d30",
	"gfp/none/pf=false/faulted=true":     "4ab0b9c0046b1452",
	"gfp/none/pf=true/faulted=false":     "01a49e9991f06888",
	"gfp/none/pf=true/faulted=true":      "a270b1b2d1f0db4a",
	"grp/each/pf=false/faulted=false":    "94ebba9005671f7c",
	"grp/each/pf=false/faulted=true":     "877d21d2b008f93c",
	"grp/each/pf=true/faulted=false":     "2bb8be52674775a5",
	"grp/each/pf=true/faulted=true":      "3b7f6d742976e84a",
	"grp/total/pf=false/faulted=false":   "2782b0279dfc0251",
	"grp/total/pf=false/faulted=true":    "d9d71e7b28a67a7a",
	"grp/total/pf=true/faulted=false":    "fad833e2197be0b6",
	"grp/total/pf=true/faulted=true":     "bf0ced089aabcbd1",
	"grp/portion/pf=false/faulted=false": "08bad5e1ddecf058",
	"grp/portion/pf=false/faulted=true":  "62e3b8b1056cfd4f",
	"grp/portion/pf=true/faulted=false":  "e6997ac686430ab5",
	"grp/portion/pf=true/faulted=true":   "f158c90601c8e782",
	"grp/none/pf=false/faulted=false":    "9cee4672032d8437",
	"grp/none/pf=false/faulted=true":     "5f95fc3cc3493c56",
	"grp/none/pf=true/faulted=false":     "580eb0ce774842fd",
	"grp/none/pf=true/faulted=true":      "8b93b12b05e05430",
	"gw/each/pf=false/faulted=false":     "2585db1cc7414134",
	"gw/each/pf=false/faulted=true":      "299fc87e9e43b892",
	"gw/each/pf=true/faulted=false":      "168a83496d38f694",
	"gw/each/pf=true/faulted=true":       "51e8d5ef6d1987d4",
	"gw/total/pf=false/faulted=false":    "91b94f38f7768071",
	"gw/total/pf=false/faulted=true":     "4014961c2d86f9a0",
	"gw/total/pf=true/faulted=false":     "6c6812d2be1a0164",
	"gw/total/pf=true/faulted=true":      "ace5c1d536e4463a",
	"gw/portion/pf=false/faulted=false":  "c51caec1627ec6da",
	"gw/portion/pf=false/faulted=true":   "d29aef9c271f7f7e",
	"gw/portion/pf=true/faulted=false":   "43465f8671251e02",
	"gw/portion/pf=true/faulted=true":    "273d20dd0547b964",
	"gw/none/pf=false/faulted=false":     "23d614a0ae15e2e7",
	"gw/none/pf=false/faulted=true":      "b6770cd4bd07d97d",
	"gw/none/pf=true/faulted=false":      "b01bfdbd26898852",
	"gw/none/pf=true/faulted=true":       "d80cfd14edd294e9",
}

// pinnedTraceConfig is a small run of one pattern, sync style and
// prefetch setting. faulted adds transient disk errors and a processor
// kill under a barrier timeout, so the trace carries read retries,
// takeover reads and quorum releases.
func pinnedTraceConfig(kind pattern.Kind, style barrier.Style, prefetch, faulted bool) core.Config {
	cfg := core.DefaultConfig(kind)
	cfg.Procs = 4
	cfg.Disks = 4
	cfg.Pattern.Procs = 4
	cfg.Pattern.TotalBlocks = 96
	cfg.Pattern.BlocksPerProc = 24
	if kind == pattern.GRP {
		// The default 50–150-block portions would make one portion of
		// the 96-block string, the same run as gw.
		cfg.Pattern.MinPortion, cfg.Pattern.MaxPortion = 8, 24
		cfg.Pattern.MinGap, cfg.Pattern.MaxGap = 2, 8
	}
	cfg.Sync = style
	cfg.SyncEveryPerProc = 4
	cfg.SyncEveryTotal = 16
	cfg.Prefetch = prefetch
	if faulted {
		cfg.Fault = fault.Config{Seed: 7, ReadErrorRate: 0.05}
		cfg.NodeFault = fault.NodeConfig{
			Seed:           3,
			KillAt:         250 * sim.Millisecond,
			KillNode:       1,
			BarrierTimeout: 80 * sim.Millisecond,
		}
	}
	return cfg
}

// TestTraceDigestsPinned runs every pattern under every sync style,
// with prefetching off and on, clean and faulted, and checks the trace
// bytes against the pins: event order and timestamps, not just the
// Result, must stay fixed.
func TestTraceDigestsPinned(t *testing.T) {
	t.Parallel()
	for _, kind := range pattern.Kinds {
		for _, style := range barrier.Styles {
			for _, prefetch := range []bool{false, true} {
				for _, faulted := range []bool{false, true} {
					name := fmt.Sprintf("%v/%v/pf=%v/faulted=%v", kind, style, prefetch, faulted)
					cfg := pinnedTraceConfig(kind, style, prefetch, faulted)
					rec := NewRecorder()
					cfg.Trace = rec.Hook()
					core.MustRun(cfg)
					var b bytes.Buffer
					if _, err := rec.WriteTo(&b); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b.Bytes())
					got := hex.EncodeToString(sum[:8])
					if want := traceDigests[name]; got != want {
						t.Errorf("%q: %q, // pinned %q", name, got, want)
					}
				}
			}
		}
	}
}
