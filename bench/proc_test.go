package main

import "testing"

// TestChildPeakMemoryIsItsOwn: ru_maxrss of a child started while the parent
// is large reports the parent's size (the child begins life sharing it), which
// is how a daemon fed from a 743 MB in-memory trace once measured 721 MB
// against 53 MB when fed from a file. VmHWM must not show that.
func TestChildPeakMemoryIsItsOwn(t *testing.T) {
	ballast := make([]byte, 300<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1 // resident, not just reserved
	}
	res, err := runProc("sleep", "0.2")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("sleep exited %d", res.ExitCode)
	}
	if res.MaxRSSMB <= 0 || res.MaxRSSMB >= 50 {
		t.Errorf("trivial child under a 300 MB harness read %.1f MB peak, want its own few MB", res.MaxRSSMB)
	}
	if ballast[4096] != 1 {
		t.Fatal("ballast lost")
	}
}

func TestProcTimesTheReportTail(t *testing.T) {
	res, err := runProc("sh", "-c", "sleep 0.05; echo first; sleep 0.1; echo last")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Stdout) != "first\nlast\n" {
		t.Errorf("stdout %q", res.Stdout)
	}
	if res.Tail.Seconds() < 0.09 || res.Tail >= res.Wall {
		t.Errorf("tail %v of wall %v: want the 0.1 s after the first line", res.Tail, res.Wall)
	}
}
