package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
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
