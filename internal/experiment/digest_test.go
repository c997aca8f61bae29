package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// paperSuiteDigest is the sha256 of the paper-scale suite's marshalled
// pairs, the value perfbench/spec.json pins for the paper-suite
// workload. It was generated on the goroutine engine, which the cnode
// state machine replaced, so the suite's 92 Results hold byte for byte
// across that change at the paper's 20 processors.
const paperSuiteDigest = "36be7223f6674caee02328fd9140e7f05d6cacdfcc64fa4e426a47abeaf18d37"

// TestPaperSuiteDigest runs the full 92-run suite at paper scale and
// checks its digest.
func TestPaperSuiteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 92-run paper-scale suite")
	}
	b, err := json.Marshal(RunSuite(PaperScale()).Pairs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != paperSuiteDigest {
		t.Fatalf("paper suite digest %s, want %s", got, paperSuiteDigest)
	}
}

// suiteAnalysisDigests pins the first 16 hex digits of the sha256 of
// each paper-scale suite run's access analysis (obs.Analyze), by
// Config.Label. They were made from the per-access trace the span
// trace replaced; the analyses computed from spans match all 92.
var suiteAnalysisDigests = map[string]string{
	"lfp/each/balanced/nopf":    "b2777a850575ec25",
	"lfp/each/balanced/pf":      "31da3f5bbae08ca0",
	"lfp/each/iobound/nopf":     "f3dacf58decc9df9",
	"lfp/each/iobound/pf":       "46a0b6fc98b6c9e2",
	"lfp/total/balanced/nopf":   "4bffdb32c5e48f67",
	"lfp/total/balanced/pf":     "6f8dd8ae6975fb43",
	"lfp/total/iobound/nopf":    "7d95e5942d144270",
	"lfp/total/iobound/pf":      "12538f894dcce7af",
	"lfp/portion/balanced/nopf": "b2777a850575ec25",
	"lfp/portion/balanced/pf":   "31da3f5bbae08ca0",
	"lfp/portion/iobound/nopf":  "f3dacf58decc9df9",
	"lfp/portion/iobound/pf":    "46a0b6fc98b6c9e2",
	"lfp/none/balanced/nopf":    "210387181cad2073",
	"lfp/none/balanced/pf":      "6023a1b4295bd7f9",
	"lfp/none/iobound/nopf":     "e1722cfee2cf31f8",
	"lfp/none/iobound/pf":       "a606f3a47e8ef24e",
	"lrp/each/balanced/nopf":    "9233f36838187ccf",
	"lrp/each/balanced/pf":      "773a4af0f5fbab80",
	"lrp/each/iobound/nopf":     "b55eeebab0778952",
	"lrp/each/iobound/pf":       "0055ef8c5eeeef79",
	"lrp/total/balanced/nopf":   "1aeec6d64f40fe48",
	"lrp/total/balanced/pf":     "3e0fcd14c707e2c5",
	"lrp/total/iobound/nopf":    "301b4b9dc84e786c",
	"lrp/total/iobound/pf":      "21680d08f37c187c",
	"lrp/portion/balanced/nopf": "15c33ef7cbac7637",
	"lrp/portion/balanced/pf":   "b298ce76069f93ed",
	"lrp/portion/iobound/nopf":  "6af47fa37053574c",
	"lrp/portion/iobound/pf":    "0121ec9a7817e39a",
	"lrp/none/balanced/nopf":    "34a05b82879a6aa9",
	"lrp/none/balanced/pf":      "142b9de51a8a56bc",
	"lrp/none/iobound/nopf":     "c9b52ec4b4b6cea4",
	"lrp/none/iobound/pf":       "5b79a5700572bbc1",
	"lw/each/balanced/nopf":     "5f84f8f3a872df97",
	"lw/each/balanced/pf":       "a6b00827a957c517",
	"lw/each/iobound/nopf":      "f78bcb7feeeede8b",
	"lw/each/iobound/pf":        "51c66aff8fa10b49",
	"lw/total/balanced/nopf":    "50e3852cd0ea43cf",
	"lw/total/balanced/pf":      "91a00442020d6f1a",
	"lw/total/iobound/nopf":     "6bb055d6b6521493",
	"lw/total/iobound/pf":       "a235d2a642251ca7",
	"lw/none/balanced/nopf":     "5fcd36bf379c07d5",
	"lw/none/balanced/pf":       "ed50425c75981856",
	"lw/none/iobound/nopf":      "f78bcb7feeeede8b",
	"lw/none/iobound/pf":        "4520f00f450cd804",
	"gfp/each/balanced/nopf":    "5c09cfa4e74df3a3",
	"gfp/each/balanced/pf":      "90d47f905f09fccf",
	"gfp/each/iobound/nopf":     "ca1da48a13881865",
	"gfp/each/iobound/pf":       "8ffc9ec0d5be4b45",
	"gfp/total/balanced/nopf":   "8421a1f803a5e7c6",
	"gfp/total/balanced/pf":     "c31df7f8c2e42b1a",
	"gfp/total/iobound/nopf":    "b188268761a30ece",
	"gfp/total/iobound/pf":      "16f938c9b3dbcbf5",
	"gfp/portion/balanced/nopf": "390187b074804655",
	"gfp/portion/balanced/pf":   "92d2fc6caa1cf5d2",
	"gfp/portion/iobound/nopf":  "3d34a57ee7935886",
	"gfp/portion/iobound/pf":    "533e1e76ba3a4f16",
	"gfp/none/balanced/nopf":    "c97840622eadf34e",
	"gfp/none/balanced/pf":      "2f2e37497dfc971e",
	"gfp/none/iobound/nopf":     "171e21bccb74bede",
	"gfp/none/iobound/pf":       "e1e69c3d1f748b10",
	"grp/each/balanced/nopf":    "5caeb4d397085aad",
	"grp/each/balanced/pf":      "28e7caee5f5289f0",
	"grp/each/iobound/nopf":     "65f5b7c7f8883c3d",
	"grp/each/iobound/pf":       "6ac9e8e6ff8f786b",
	"grp/total/balanced/nopf":   "50ed4c51e2b76ce1",
	"grp/total/balanced/pf":     "093458044de4300a",
	"grp/total/iobound/nopf":    "04652ce31f9839b9",
	"grp/total/iobound/pf":      "d74396376b1ae9a6",
	"grp/portion/balanced/nopf": "57f95eae613b6a93",
	"grp/portion/balanced/pf":   "ecc8778a2eaca44d",
	"grp/portion/iobound/nopf":  "04652ce31f9839b9",
	"grp/portion/iobound/pf":    "ca66b9280fa65809",
	"grp/none/balanced/nopf":    "250dd37cd8c73c3a",
	"grp/none/balanced/pf":      "f2e186e850394d35",
	"grp/none/iobound/nopf":     "6bc4e5b61442bc73",
	"grp/none/iobound/pf":       "8afa6fedcfc3734c",
	"gw/each/balanced/nopf":     "09591b4e8e6cb035",
	"gw/each/balanced/pf":       "863ac4241d905c58",
	"gw/each/iobound/nopf":      "e434894898ae29fe",
	"gw/each/iobound/pf":        "8deeec98e52b7ceb",
	"gw/total/balanced/nopf":    "516d15f02feaf881",
	"gw/total/balanced/pf":      "43d100846c5484f0",
	"gw/total/iobound/nopf":     "c63460b40ecd8a02",
	"gw/total/iobound/pf":       "cd14083db423d7b5",
	"gw/portion/balanced/nopf":  "e3b3eef535cdf89f",
	"gw/portion/balanced/pf":    "793195fae9ec9ed4",
	"gw/portion/iobound/nopf":   "346cc7dd8cdd2da8",
	"gw/portion/iobound/pf":     "8deeec98e52b7ceb",
	"gw/none/balanced/nopf":     "e3b3eef535cdf89f",
	"gw/none/balanced/pf":       "793195fae9ec9ed4",
	"gw/none/iobound/nopf":      "346cc7dd8cdd2da8",
	"gw/none/iobound/pf":        "8deeec98e52b7ceb",
}

// TestPaperSuiteAnalysisPinned runs every configuration of the
// paper-scale suite with a span recorder attached and checks each
// run's access analysis against its pin.
func TestPaperSuiteAnalysisPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 92-run paper-scale suite")
	}
	opts := PaperScale()
	for _, cell := range Cells() {
		for _, pf := range []bool{false, true} {
			cfg := opts.Config(cell.Kind, cell.Sync, cell.IOBound, pf)
			rec := obs.NewRecorder()
			cfg.Obs = rec
			core.MustRun(cfg)
			sum := sha256.Sum256([]byte(obs.Analyze(rec).String()))
			if got, want := hex.EncodeToString(sum[:8]), suiteAnalysisDigests[cfg.Label()]; got != want {
				t.Errorf("%s: analysis %s, pinned %s", cfg.Label(), got, want)
			}
		}
	}
}
