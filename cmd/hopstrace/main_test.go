package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGenReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.txt")
	var out strings.Builder
	if err := run([]string{"gen", "-ops", "500", "-out", trace}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < 400 {
		t.Fatalf("trace has %d lines, want ~500", lines)
	}
	out.Reset()
	if err := run([]string{"replay", "-in", trace, "-servers", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "errors: 0") {
		t.Fatalf("replay errored:\n%s", report)
	}
	if !strings.Contains(report, "HopsFS-CL (3,3)") {
		t.Fatalf("unexpected report:\n%s", report)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the named golden file byte-for-byte,
// rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/hopstrace -run Golden -update` to create)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// profileArgs is a small fixed-seed profiling run shared by the golden
// tests: big enough to exercise every op type, small enough to stay fast.
func profileArgs(format string) []string {
	return []string{"profile", "-ops", "300", "-seed", "7", "-clients", "6", "-format", format}
}

func TestProfileGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("text"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "critical-path attribution") {
		t.Fatalf("missing attribution table:\n%s", out.String())
	}
	checkGolden(t, "profile.golden", out.String())

	// Byte-identical across runs in the same process too.
	var again strings.Builder
	if err := run(profileArgs("text"), &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatal("profile output not deterministic across same-seed runs")
	}
}

func TestProfileChromeGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("chrome"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, `{"displayTimeUnit":"ms"`) || !strings.Contains(got, `"ph":"X"`) {
		t.Fatalf("not a chrome trace:\n%.200s", got)
	}
	checkGolden(t, "profile_chrome.golden", got)
}

func TestProfileFoldedGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("folded"), &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}
	checkGolden(t, "profile_folded.golden", out.String())
}

func TestTimelineCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"timeline", "-ops", "300", "-seed", "7", "-clients", "6", "-interval", "10ms"}, &out); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("timeline is not valid CSV: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("timeline too short:\n%s", out.String())
	}
	header := strings.Join(rows[0], "|")
	if rows[0][0] != "t_ms" || !strings.Contains(header, "net.link.bytes") {
		t.Fatalf("timeline header = %q", header)
	}
	for i, r := range rows[1:] {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i+1, len(r), len(rows[0]))
		}
	}

	var again strings.Builder
	if err := run([]string{"timeline", "-ops", "300", "-seed", "7", "-clients", "6", "-interval", "10ms"}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatal("timeline not deterministic across same-seed runs")
	}
}

func TestBadInvocations(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"frob"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"replay", "-setup", "nope", "-in", "/dev/null"}, &out); err == nil {
		t.Fatal("unknown setup accepted")
	}
	if err := run([]string{"replay", "-in", "/nonexistent-file"}, &out); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// hotspotsArgs is the fixed seed-1 hotspots run the golden file pins.
func hotspotsArgs(format string) []string {
	return []string{"hotspots", "-ops", "800", "-seed", "1", "-clients", "8", "-format", format, "-exemplars"}
}

func TestHotspotsGolden(t *testing.T) {
	var out strings.Builder
	if err := run(hotspotsArgs("text"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"hottest subtree depth 1", "hottest table", "hottest partition", "exemplars:", "critical-path attribution"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in hotspots report:\n%s", want, got)
		}
	}
	checkGolden(t, "hotspots_seed1.golden", got)

	// Byte-identical across runs in the same process too.
	var again strings.Builder
	if err := run(hotspotsArgs("text"), &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Fatal("hotspots output not deterministic across same-seed runs")
	}
}

func TestHotspotsCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"hotspots", "-ops", "400", "-seed", "1", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(out.String()))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("hotspots -format csv is not well-formed CSV: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("csv has %d rows, want header plus data", len(rows))
	}
	if want := []string{"family", "rank", "key", "touches", "share", "err"}; strings.Join(rows[0], ",") != strings.Join(want, ",") {
		t.Fatalf("csv header = %v, want %v", rows[0], want)
	}
}

func TestUnknownSubcommandSuggestion(t *testing.T) {
	err := run([]string{"timline"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `did you mean "timeline"?`) {
		t.Fatalf("want a timeline suggestion, got: %v", err)
	}
	if !strings.Contains(err.Error(), "hotspots") || !strings.Contains(err.Error(), "slo") {
		t.Fatalf("usage in error should list every subcommand, got: %v", err)
	}
	// Nothing plausibly close: no suggestion, usage still shown.
	err = run([]string{"frobnicate"}, &strings.Builder{})
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want no suggestion for %q, got: %v", "frobnicate", err)
	}
	if !strings.Contains(err.Error(), "subcommands:") {
		t.Fatalf("usage missing from error: %v", err)
	}
}

// TestProfileContentionLedgerCoversEveryShard replays the profile
// subcommand's default trace (seed 1, 2000 ops, 8 clients) on two shards
// and checks that the contention ledger counts every blocking event the
// ndb.contention.blocks counters saw, on either shard — not only shard
// 0's.
func TestProfileContentionLedgerCoversEveryShard(t *testing.T) {
	ops := genTrace(2000, 1)
	d, err := buildReplayDeployment("HopsFS-CL (3,3)", 1, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.EnableTracing(len(ops) + 64)
	if _, _, err := replayConcurrent(d, ops, 8, 1000*time.Second); err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for _, s := range d.Registry.Snapshot() {
		if strings.HasPrefix(s.Name, "ndb.contention.blocks{") {
			blocks += int64(s.Value)
		}
	}
	if blocks == 0 {
		t.Fatal("replay recorded no blocking events; the check needs contention")
	}
	if got := d.Contention.Events(); got != blocks {
		t.Fatalf("ledger counts %d blocking events, ndb.contention.blocks sums to %d", got, blocks)
	}
}

// TestProfileCephHasNoContentionLedger checks that CephFS deployments,
// which have no NDB layer, still report the ledger's absence.
func TestProfileCephHasNoContentionLedger(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"profile", "-setup", "CephFS", "-ops", "200", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(no contention ledger: CephFS setups run untraced)") {
		t.Fatalf("CephFS profile lost the no-ledger line:\n%s", out.String())
	}
}
