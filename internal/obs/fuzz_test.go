package obs_test

import (
	"bytes"
	"reflect"
	"testing"

	rapid "repro"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// FuzzRead checks that Read never panics and that any input it accepts
// reads back exactly after WriteTo: Read must refuse every event that
// WriteTo would write differently. Run it with
// `go test ./internal/obs -run=NONE -fuzz=FuzzRead`.
func FuzzRead(f *testing.F) {
	// A recorded run: prefetching, transient faults and barriers bring
	// in every track kind, async pairs, 12 of the 13 span kinds and 17
	// counters in 122 spans.
	cfg := rapid.DefaultConfig(rapid.GW)
	cfg.Procs, cfg.Disks, cfg.Pattern.Procs = 2, 2, 2
	cfg.Pattern.TotalBlocks = 16
	cfg.Sync = rapid.SyncEveryNEach
	cfg.Prefetch = true
	cfg.Fault = rapid.FaultConfig{Seed: 6, ReadErrorRate: 0.2}
	rec := obs.NewRecorder()
	cfg.Obs = rec
	if _, err := rapid.Run(cfg); err != nil {
		f.Fatal(err)
	}
	var recorded bytes.Buffer
	if _, err := rec.WriteTo(&recorded); err != nil {
		f.Fatal(err)
	}
	good := recorded.Bytes()
	// The same run through the telemetry sink, one node sampled, in
	// 20 ms windows: 23 windows, 5 of them empty, with every kind of
	// series, and the totals.
	tel := telemetry.New(telemetry.Config{Window: 20_000, SampleK: 1, Nodes: 2})
	cfg.Obs = tel
	if _, err := rapid.Run(cfg); err != nil {
		f.Fatal(err)
	}
	var windowed bytes.Buffer
	if _, err := tel.Recorder().WriteTo(&windowed); err != nil {
		f.Fatal(err)
	}
	if _, err := obs.Read(bytes.NewReader(windowed.Bytes())); err != nil {
		f.Fatalf("Read refuses the telemetry seed: %v", err)
	}
	// The inputs of cmd/trace's TestMalformedTraceErrors.
	for _, seed := range [][]byte{
		good,
		nil,
		[]byte("hello world\nspan 1 2 3\n"),
		[]byte(`{"windowMicros":100000,"windows":[]}`),
		good[:len(good)/2],
		good[:len(good)-2],
		[]byte(`{"traceEvents":[{"name":"what","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"arg":0}}]}`),
		[]byte(`{"traceEvents":[{"name":"disk-queue","ph":"b","cat":"disk-queue","ts":0,"pid":2,"tid":0,"id":"a1","args":{"arg":0}}]}`),
		windowed.Bytes(),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := obs.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if _, err := rec.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		back, err := obs.Read(&b)
		if err != nil {
			t.Fatalf("Read refuses what WriteTo wrote: %v\n%s", err, b.Bytes())
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip changed the trace:\nread    %+v\nwritten %s\nreread  %+v", rec, b.Bytes(), back)
		}
	})
}
