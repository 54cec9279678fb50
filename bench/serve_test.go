package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWatcherKeepsRenamesMadeJustBeforeStop: the daemon renames its last
// window files during the drain and exits; stop must not lose the events the
// reader goroutine had not got to.
func TestWatcherKeepsRenamesMadeJustBeforeStop(t *testing.T) {
	dir := t.TempDir()
	win := filepath.Join(dir, "windows")
	if err := os.Mkdir(win, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := watchWindows(win)
	if err != nil {
		t.Fatal(err)
	}
	const files = 500
	for i := 0; i < files; i++ {
		tmp := filepath.Join(dir, "tmp")
		if err := os.WriteFile(tmp, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(win, fmt.Sprintf("window-%d.json", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen, last := w.stop()
	if len(seen) != files || last.IsZero() {
		t.Errorf("watcher saw %d of %d renames, last at %v", len(seen), files, last)
	}
}

// TestContractLine: late windows are reported in the line and do not fail the
// run; wrong outputs print the line too and then fail it.
func TestContractLine(t *testing.T) {
	r := RunResult{Workload: "serve-live", Correct: true, Attempted: 900, Failed: 2, Late: 2,
		Metrics: Metrics{"wall_s": {Value: 1.5, Unit: "s", Better: lower, N: 3}}}
	var out bytes.Buffer
	if err := printContract(&out, r); err != nil {
		t.Errorf("late windows failed the run: %v", err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil || len(line) != 4 {
		t.Fatalf("line %q: %v", out.String(), err)
	}
	if got := string(line["failed"]) + " " + string(line["metrics"]); got != `2 {"wall_s":{"value":1.5,"unit":"s"}}` {
		t.Errorf("failed and metrics read %s", got)
	}
	r.Correct = false
	out.Reset()
	if err := printContract(&out, r); !errors.Is(err, errIncorrect) || out.Len() == 0 {
		t.Errorf("wrong outputs: err %v, line %q", err, out.String())
	}
}
