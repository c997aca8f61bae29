package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// traceDigests pins, for each run of the trace matrix, the first 16
// hex digits of the sha256 of its spans and counters as read back from
// the written trace (rendered by v1) and of its access analysis
// (obs.Analyze(...).String()). The analysis
// digests were made from the per-access trace the span trace replaced;
// the two gave byte-identical analyses on all 96 runs, and the span
// streams differed only in the read and backoff Args that now carry
// the start ordinal and the fault class.
var traceDigests = map[string]struct{ spans, analysis string }{
	"lfp/each/pf=false/faulted=false":    {"5e91e3b808a287d3", "be10f484e4d60aae"},
	"lfp/each/pf=false/faulted=true":     {"52ec23ae67d0853f", "ee5abcd87dfbed0d"},
	"lfp/each/pf=true/faulted=false":     {"6392e71c2cc1df04", "761815ff3f92dce9"},
	"lfp/each/pf=true/faulted=true":      {"f9934f79b369f3ec", "3b88078454d18eac"},
	"lfp/total/pf=false/faulted=false":   {"7ca885840b603d54", "b14a07f0d60084d1"},
	"lfp/total/pf=false/faulted=true":    {"92130c80b0c9946d", "c7dfc5f8530c8bca"},
	"lfp/total/pf=true/faulted=false":    {"b0b4fa419602a746", "ff18fa72e91d0498"},
	"lfp/total/pf=true/faulted=true":     {"ebdc0408d85d90fd", "4fd8f88e1bb85513"},
	"lfp/portion/pf=false/faulted=false": {"9cfb931593e20be0", "c805e2d8c2bb36dd"},
	"lfp/portion/pf=false/faulted=true":  {"df95e46edfc9ce36", "bdb9cb2ebdf530b6"},
	"lfp/portion/pf=true/faulted=false":  {"56010d83aa09446f", "62803fc6020f1ac9"},
	"lfp/portion/pf=true/faulted=true":   {"a32f963f0eaa2269", "725bdf14bfc26b92"},
	"lfp/none/pf=false/faulted=false":    {"4894866fa7898058", "d715a78fc8872a77"},
	"lfp/none/pf=false/faulted=true":     {"d95988bb7bc9836d", "4dcc6ff8539e3d6d"},
	"lfp/none/pf=true/faulted=false":     {"f150011bb6e56f19", "6e57868f211400e7"},
	"lfp/none/pf=true/faulted=true":      {"02ddd2de1dc1cb73", "fac4191a9e4dfa67"},
	"lrp/each/pf=false/faulted=false":    {"a269a17700f57392", "8ff0b76718507bc5"},
	"lrp/each/pf=false/faulted=true":     {"2c977e2557480837", "03e3f24ddc07e3b0"},
	"lrp/each/pf=true/faulted=false":     {"87613601a641f628", "af02217bf04eaea6"},
	"lrp/each/pf=true/faulted=true":      {"68fc26fe4236e0d3", "bf72e2563fe74464"},
	"lrp/total/pf=false/faulted=false":   {"85c29dedddbd6256", "895e0f4fe3220e35"},
	"lrp/total/pf=false/faulted=true":    {"5036531008156692", "ee81f8dc002d5290"},
	"lrp/total/pf=true/faulted=false":    {"be2a9c17f29c3c2c", "79c61d7caceb9481"},
	"lrp/total/pf=true/faulted=true":     {"c667218f999c0424", "77237641efbfc83a"},
	"lrp/portion/pf=false/faulted=false": {"86577033799ee6e2", "fd305068750443ca"},
	"lrp/portion/pf=false/faulted=true":  {"bb4640703f9cf884", "c2fa6f769493ac4e"},
	"lrp/portion/pf=true/faulted=false":  {"56fa6fa5a7dd1717", "31af6e4d8bf552ce"},
	"lrp/portion/pf=true/faulted=true":   {"4bcc2b56116a6817", "3b1fb984a7883191"},
	"lrp/none/pf=false/faulted=false":    {"a34d707ff0e7a0f3", "eeead3d76b7aac2c"},
	"lrp/none/pf=false/faulted=true":     {"d04687738e992ea6", "f3bb015cbefe1bef"},
	"lrp/none/pf=true/faulted=false":     {"db803617bd838e77", "c1bac506aa570b11"},
	"lrp/none/pf=true/faulted=true":      {"2759c70d0eb8daa7", "892dfcf9c2f1fa31"},
	"lw/each/pf=false/faulted=false":     {"723b8d20ae657cc0", "0f8c98d0e189ec27"},
	"lw/each/pf=false/faulted=true":      {"e0dba354f69565fa", "bf8b2a1362fc0e1b"},
	"lw/each/pf=true/faulted=false":      {"3a74eb200575981d", "6f1c1314c27f25fe"},
	"lw/each/pf=true/faulted=true":       {"9e7951c384d6339e", "84400dd10427f285"},
	"lw/total/pf=false/faulted=false":    {"d03c15783a581fc6", "591c99bb41339ff6"},
	"lw/total/pf=false/faulted=true":     {"e1102694d5445106", "9181eb873792a759"},
	"lw/total/pf=true/faulted=false":     {"581f318235ee366d", "d8ea3c82e8373c54"},
	"lw/total/pf=true/faulted=true":      {"a3cddfc3e3ee7239", "5e7b32b90fa9e216"},
	"lw/portion/pf=false/faulted=false":  {"11a257ed99ccff68", "5330fe97186401b0"},
	"lw/portion/pf=false/faulted=true":   {"ac1a8107440d14c1", "e6cec72acea6dd33"},
	"lw/portion/pf=true/faulted=false":   {"c625e013d121b128", "f5d82dcb1f417882"},
	"lw/portion/pf=true/faulted=true":    {"3e287080a29af2cc", "bc417a8eb3b36a3a"},
	"lw/none/pf=false/faulted=false":     {"201c2bec955ccd49", "5330fe97186401b0"},
	"lw/none/pf=false/faulted=true":      {"72a1df68338c1ed1", "cb2c535a547f5f96"},
	"lw/none/pf=true/faulted=false":      {"6eddf661de3ec651", "c3d5ca5d2b536972"},
	"lw/none/pf=true/faulted=true":       {"56422a79b83fcae1", "dd6508ee1f5e700c"},
	"gfp/each/pf=false/faulted=false":    {"889c005626484533", "c33632d179c8cc6d"},
	"gfp/each/pf=false/faulted=true":     {"55159bd6b96cdf71", "a6e599a4973576b2"},
	"gfp/each/pf=true/faulted=false":     {"3b9c1104a67c2f67", "ce65b2f6cf0afec9"},
	"gfp/each/pf=true/faulted=true":      {"b1f3750956519894", "b576428102eb070f"},
	"gfp/total/pf=false/faulted=false":   {"07fd176eb27f2035", "b89981b1f920ee7f"},
	"gfp/total/pf=false/faulted=true":    {"c7975ddb96c2aba8", "29964a4bac3b119d"},
	"gfp/total/pf=true/faulted=false":    {"08c6fd55e302c974", "1563b54e4e4c1eff"},
	"gfp/total/pf=true/faulted=true":     {"50da41a33e16dfb1", "3def8bb4245edb43"},
	"gfp/portion/pf=false/faulted=false": {"02b0fea3b1e398db", "7064399efed5d6bb"},
	"gfp/portion/pf=false/faulted=true":  {"db1f763d71c86d63", "f39655f65d7f2a16"},
	"gfp/portion/pf=true/faulted=false":  {"80fd2782f8890cf0", "d4ee4e494685eb88"},
	"gfp/portion/pf=true/faulted=true":   {"4d51a8221549b965", "e0626dc5935c6d34"},
	"gfp/none/pf=false/faulted=false":    {"ccdeaffcfc754463", "46ea2ca4e315ddcd"},
	"gfp/none/pf=false/faulted=true":     {"daffdd4499612893", "28cc8db2d7b135c2"},
	"gfp/none/pf=true/faulted=false":     {"ff0857fc466ff98b", "faa8d249fbd28b22"},
	"gfp/none/pf=true/faulted=true":      {"645867f1ecc7c956", "7580394ede153c23"},
	"grp/each/pf=false/faulted=false":    {"388ba66d7754b629", "b4d7edc55e73f0c3"},
	"grp/each/pf=false/faulted=true":     {"66270ff3e84964a9", "52cc4a4640e27adb"},
	"grp/each/pf=true/faulted=false":     {"79e34dbdbe847991", "e4f97cb76384d91a"},
	"grp/each/pf=true/faulted=true":      {"1300e8c8537f589e", "017b4187bedb2c80"},
	"grp/total/pf=false/faulted=false":   {"6a749ee45e376ee1", "11f15f08e13010c3"},
	"grp/total/pf=false/faulted=true":    {"3e5181c81adfde94", "79f1fd1a820a0a93"},
	"grp/total/pf=true/faulted=false":    {"71746da6d534831f", "42f8622f824541c2"},
	"grp/total/pf=true/faulted=true":     {"988b8f46753ec0f0", "328f5e5b986e6f8f"},
	"grp/portion/pf=false/faulted=false": {"bf30951d542d8e24", "ba184a9526ad6512"},
	"grp/portion/pf=false/faulted=true":  {"0bf4475d9cc0fb94", "9c119baa6f8841e1"},
	"grp/portion/pf=true/faulted=false":  {"b11c58e1bc632dea", "eace932ad3175868"},
	"grp/portion/pf=true/faulted=true":   {"65001c15fbbcb7ea", "28ae295067380ff7"},
	"grp/none/pf=false/faulted=false":    {"53967cad74f114fa", "19e889c07efe81ff"},
	"grp/none/pf=false/faulted=true":     {"4fe6f2f314f1abbd", "c844cb657bf4333d"},
	"grp/none/pf=true/faulted=false":     {"3126944b66668cdc", "e64f0d6a4c6f6589"},
	"grp/none/pf=true/faulted=true":      {"3381d3e97be6796a", "23eda7604c56a99e"},
	"gw/each/pf=false/faulted=false":     {"7be6e448eaf252fa", "fec314ca69eba6ee"},
	"gw/each/pf=false/faulted=true":      {"679ff34400d5e511", "cbd7a6f8bc3a4004"},
	"gw/each/pf=true/faulted=false":      {"1e4fcb3b29acce98", "bc78bff49009ad9f"},
	"gw/each/pf=true/faulted=true":       {"45f2f771e2661587", "abe00a1d942bddef"},
	"gw/total/pf=false/faulted=false":    {"457f322e3f18f8a2", "e9c27f10f13bc9b3"},
	"gw/total/pf=false/faulted=true":     {"93c06224f20357a8", "f0e0c66dc2479780"},
	"gw/total/pf=true/faulted=false":     {"4f74982e33388045", "890fbcc7e75832da"},
	"gw/total/pf=true/faulted=true":      {"c8ee05f491392f37", "94a0770a2c829577"},
	"gw/portion/pf=false/faulted=false":  {"7a003644958a5b57", "7a5d65ffa80ec8e7"},
	"gw/portion/pf=false/faulted=true":   {"d1b78b5dcdf366ae", "34206c01bb95d335"},
	"gw/portion/pf=true/faulted=false":   {"6b8a0e38ba7686f7", "faee16ca395ef499"},
	"gw/portion/pf=true/faulted=true":    {"08d8496197939909", "cdcecef1394d59b9"},
	"gw/none/pf=false/faulted=false":     {"f30d0b7bc3bffb88", "7a5d65ffa80ec8e7"},
	"gw/none/pf=false/faulted=true":      {"982f3a2e457f5295", "34206c01bb95d335"},
	"gw/none/pf=true/faulted=false":      {"c605a3e26f22b249", "faee16ca395ef499"},
	"gw/none/pf=true/faulted=true":       {"ae3350ea5243b1f7", "cdcecef1394d59b9"},
}

// retryClassDigests pins the access analysis of faulted runs whose
// retries fail in all three fault classes (transient errors, timeouts
// of stuck requests, and a dead disk), made and checked the same way
// as traceDigests' analysis column.
var retryClassDigests = map[string]string{
	"lfp/each/pf=false/domain=false":    "3b97aa0262eb4c44",
	"lfp/each/pf=true/domain=false":     "77e5aaa9da33599a",
	"lfp/total/pf=false/domain=false":   "a2bebbbe790a503f",
	"lfp/total/pf=true/domain=false":    "b3d2227a47449148",
	"lfp/portion/pf=false/domain=false": "a9ff7b80115fd51c",
	"lfp/portion/pf=true/domain=false":  "c7e269929df82608",
	"lfp/none/pf=false/domain=false":    "592e41ad35fffe2b",
	"lfp/none/pf=true/domain=false":     "29ad45a226e510e8",
	"lrp/each/pf=false/domain=false":    "958248394e82c16a",
	"lrp/each/pf=true/domain=false":     "b69cb542870b051f",
	"lrp/total/pf=false/domain=false":   "4d645e3b8d156ff6",
	"lrp/total/pf=true/domain=false":    "40a712237dba2ca2",
	"lrp/portion/pf=false/domain=false": "75296b733bddf162",
	"lrp/portion/pf=true/domain=false":  "88a9b672beaa2ce6",
	"lrp/none/pf=false/domain=false":    "fb892481b344f784",
	"lrp/none/pf=true/domain=false":     "33396d7e2847ace0",
	"lw/each/pf=false/domain=false":     "1804dfeaf9c80088",
	"lw/each/pf=true/domain=false":      "f41d65c92a46a91d",
	"lw/total/pf=false/domain=false":    "1804dfeaf9c80088",
	"lw/total/pf=true/domain=false":     "79bf767597fd785a",
	"lw/portion/pf=false/domain=false":  "7009802efae3846e",
	"lw/portion/pf=true/domain=false":   "bc65e786698507b5",
	"lw/none/pf=false/domain=false":     "7009802efae3846e",
	"lw/none/pf=true/domain=false":      "bc65e786698507b5",
	"gfp/each/pf=false/domain=false":    "40b8d7ab464c3d94",
	"gfp/each/pf=false/domain=true":     "2f028712b9928345",
	"gfp/each/pf=true/domain=false":     "57cc58d7e97ec02c",
	"gfp/each/pf=true/domain=true":      "dd54559278269bec",
	"gfp/total/pf=false/domain=false":   "c380c88e7961d56e",
	"gfp/total/pf=false/domain=true":    "1fd9484012b52bfc",
	"gfp/total/pf=true/domain=false":    "a5b1c07eb159ce68",
	"gfp/total/pf=true/domain=true":     "28c28c20e4539d4b",
	"gfp/portion/pf=false/domain=false": "6c95efd271a7cbdf",
	"gfp/portion/pf=false/domain=true":  "66700fc76c791874",
	"gfp/portion/pf=true/domain=false":  "2cb0d3edbca413d9",
	"gfp/portion/pf=true/domain=true":   "2b3e2241195656e4",
	"gfp/none/pf=false/domain=false":    "c7adccf004e61872",
	"gfp/none/pf=false/domain=true":     "c42fe534a64761b2",
	"gfp/none/pf=true/domain=false":     "af67a6ce1adb60fb",
	"gfp/none/pf=true/domain=true":      "0eadb12db1c23b00",
	"grp/each/pf=false/domain=false":    "7a632a4dc46465b2",
	"grp/each/pf=false/domain=true":     "d4984f0431292790",
	"grp/each/pf=true/domain=false":     "9b3ac9117e4a529d",
	"grp/each/pf=true/domain=true":      "d48ff851122fa6b7",
	"grp/total/pf=false/domain=false":   "8e49ceb5a183463f",
	"grp/total/pf=false/domain=true":    "a25f92919b2dbb40",
	"grp/total/pf=true/domain=false":    "aaccf773f7ecf075",
	"grp/total/pf=true/domain=true":     "7650caee2a82f095",
	"grp/portion/pf=false/domain=false": "3de4bd64daa8c87f",
	"grp/portion/pf=false/domain=true":  "d1aa27498887fa19",
	"grp/portion/pf=true/domain=false":  "c6008b780f497a41",
	"grp/portion/pf=true/domain=true":   "ce6c785dadd9562d",
	"grp/none/pf=false/domain=false":    "ff4778606ea351d5",
	"grp/none/pf=false/domain=true":     "3ac1adb1e9dab8bd",
	"grp/none/pf=true/domain=false":     "a91c53cfcaf70cce",
	"grp/none/pf=true/domain=true":      "80edf8813777b5eb",
	"gw/each/pf=false/domain=false":     "6882cbb2557cdff5",
	"gw/each/pf=false/domain=true":      "b3f57ace02bb0ec8",
	"gw/each/pf=true/domain=false":      "3848b4de6d8e2b14",
	"gw/each/pf=true/domain=true":       "8360ea2fcad9302e",
	"gw/total/pf=false/domain=false":    "e12ca7810e292fc7",
	"gw/total/pf=false/domain=true":     "087a93e316a0a333",
	"gw/total/pf=true/domain=false":     "31136da3f9f20c30",
	"gw/total/pf=true/domain=true":      "3fbf7ff7ea6a3cd7",
	"gw/portion/pf=false/domain=false":  "b9c74cbab179a94c",
	"gw/portion/pf=false/domain=true":   "beea176123bd9c46",
	"gw/portion/pf=true/domain=false":   "90d49f09061435e1",
	"gw/portion/pf=true/domain=true":    "abe65d22b82138b3",
	"gw/none/pf=false/domain=false":     "b9c74cbab179a94c",
	"gw/none/pf=false/domain=true":      "beea176123bd9c46",
	"gw/none/pf=true/domain=false":      "90d49f09061435e1",
	"gw/none/pf=true/domain=true":       "abe65d22b82138b3",
}

// pinnedTraceConfig is a small run of one pattern, sync style and
// prefetch setting. faulted adds transient disk errors and a processor
// kill under a barrier timeout, so the trace carries read retries,
// takeover reads and quorum releases.
func pinnedTraceConfig(kind pattern.Kind, style barrier.Style, prefetch, faulted bool) Config {
	cfg := DefaultConfig(kind)
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

// forEachPinnedTrace calls f with every configuration of the trace
// matrix: each pattern under each sync style, with prefetching off and
// on, clean and faulted.
func forEachPinnedTrace(f func(name string, cfg Config)) {
	for _, kind := range pattern.Kinds {
		for _, style := range barrier.Styles {
			for _, prefetch := range []bool{false, true} {
				for _, faulted := range []bool{false, true} {
					f(fmt.Sprintf("%v/%v/pf=%v/faulted=%v", kind, style, prefetch, faulted),
						pinnedTraceConfig(kind, style, prefetch, faulted))
				}
			}
		}
	}
}

// digest16 returns the first 16 hex digits of the sha256 of b.
func digest16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// v1 renders a trace in the line grammar its span digests were pinned
// in, the repository's first trace file format:
//
//	# rapidtrace v1
//	span <track> <kind> <start> <end> <block> <arg>
//	ctr <name> <value>
//	end <nspans> <nctrs>
func v1(rec *obs.Recorder) []byte {
	var b bytes.Buffer
	b.WriteString("# rapidtrace v1\n")
	for _, s := range rec.Spans {
		fmt.Fprintf(&b, "span %s %s %d %d %d %d\n", s.Track, s.Kind, s.Start, s.End, s.Block, s.Arg)
	}
	nctrs := 0
	for c, v := range rec.Counters {
		if v != 0 {
			fmt.Fprintf(&b, "ctr %s %d\n", obs.Counter(c), v)
			nctrs++
		}
	}
	fmt.Fprintf(&b, "end %d %d\n", len(rec.Spans), nctrs)
	return b.Bytes()
}

// TestTraceDigestsPinned runs the trace matrix, writes each run's span
// trace and reads it back, and checks the spans, counters and access
// analysis read back against the pins: span order and timestamps, not
// just the Result, must stay fixed, and the file must carry them all.
func TestTraceDigestsPinned(t *testing.T) {
	t.Parallel()
	forEachPinnedTrace(func(name string, cfg Config) {
		rec := obs.NewRecorder()
		cfg.Obs = rec
		MustRun(cfg)
		var b bytes.Buffer
		if _, err := rec.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		back, err := obs.Read(&b)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		want := traceDigests[name]
		if got := digest16(v1(back)); got != want.spans {
			t.Errorf("%q: spans %q, pinned %q", name, got, want.spans)
		}
		if got := digest16([]byte(obs.Analyze(back).String())); got != want.analysis {
			t.Errorf("%q: analysis %q, pinned %q", name, got, want.analysis)
		}
	})
}

// TestRetryClassAnalysisPinned checks the retry breakdown the backoff
// spans' fault classes give: transient read errors and stuck requests
// cut off by a 100 ms timeout, plus a disk kill, or for the global
// patterns a rack kill of disks and processors.
func TestRetryClassAnalysisPinned(t *testing.T) {
	t.Parallel()
	for _, kind := range pattern.Kinds {
		for _, style := range barrier.Styles {
			for _, prefetch := range []bool{false, true} {
				for _, domain := range []bool{false, true} {
					if domain && kind.Local() {
						continue // domain node kills need a global pattern
					}
					name := fmt.Sprintf("%v/%v/pf=%v/domain=%v", kind, style, prefetch, domain)
					cfg := pinnedTraceConfig(kind, style, prefetch, false)
					cfg.Fault = fault.Config{Seed: 5, ReadErrorRate: 0.1, StuckRate: 0.05, Timeout: 100 * sim.Millisecond}
					if domain {
						cfg.Domain = fault.DomainConfig{
							Seed:       5,
							Domains:    fault.SplitDomains("rack", cfg.Disks, cfg.Procs, 2),
							KillDomain: "rack1", KillAt: 300 * sim.Millisecond,
						}
						cfg.NodeFault.BarrierTimeout = 80 * sim.Millisecond
					} else {
						cfg.Fault.KillAt = 300 * sim.Millisecond
						cfg.Fault.KillDisk = 2
					}
					rec := obs.NewRecorder()
					cfg.Obs = rec
					MustRun(cfg)
					if got := digest16([]byte(obs.Analyze(rec).String())); got != retryClassDigests[name] {
						t.Errorf("%q: analysis %q, pinned %q", name, got, retryClassDigests[name])
					}
				}
			}
		}
	}
}
