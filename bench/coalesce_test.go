package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"adscape/internal/analyzer"
	"adscape/internal/weblog"
	"adscape/internal/wire"
)

// sortedLog runs the sequential reference analyzer over a trace and returns
// its transactions in canonical order and its TLS flow count.
func sortedLog(t *testing.T, path string) ([]weblog.Transaction, int) {
	t.Helper()
	f, r, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col, _, err := analyzer.AnalyzeTraceLimits(r, adtraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	weblog.SortTransactions(col.Transactions)
	txs := make([]weblog.Transaction, len(col.Transactions))
	for i, tx := range col.Transactions {
		txs[i] = *tx
	}
	return txs, len(col.Flows)
}

// classificationSection cuts the HTTP classification lines and the per-user
// inference block out of adtrace's stdout: everything derived from the HTTP
// transaction log. The lines between and after them count TLS flows, which
// coalescing legitimately moves.
func classificationSection(t *testing.T, out []byte) []byte {
	t.Helper()
	cut := func(from, to string) []byte {
		i := bytes.Index(out, []byte(from))
		j := bytes.Index(out, []byte(to))
		if i < 0 || j < i {
			t.Fatalf("adtrace stdout lacks %q..%q:\n%s", from, to, out)
		}
		return out[i:j]
	}
	return append(cut("ad requests:", "sni coverage:"), cut("active browsers", "households with ABP")...)
}

// TestCoalescedTraceKeepsTransactions: coalescing may only remove per-packet
// work. The legacy fixture and its coalesced form must yield the same
// HTTP transaction log and the same classification out of adtrace.
func TestCoalescedTraceKeepsTransactions(t *testing.T) {
	t.Parallel()
	legacy := smokeFixtures[fixtureLegacy]
	lro := filepath.Join(t.TempDir(), "lro.trace")
	out, err := rewriteTrace(legacy.Path, lro, rewrite{coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if out*5 > legacy.Packets*2 {
		t.Fatalf("coalesced %d packets into %d; expected about a third", legacy.Packets, out)
	}
	want, wantTLS := sortedLog(t, legacy.Path)
	got, gotTLS := sortedLog(t, lro)
	if len(want) != legacy.HTTPTx {
		t.Fatalf("reference log has %d transactions, manifest says %d", len(want), legacy.HTTPTx)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coalesced trace yields a different HTTP transaction log (%d vs %d transactions)", len(got), len(want))
	}
	t.Logf("tls flows: %d legacy, %d coalesced (may differ; the coalesced manifest records its own)", wantTLS, gotTLS)

	report := func(path string) []byte {
		res, err := runProc(append([]string{smokeCfg.Tools.Adtrace, "-i", path, "-users", "-workers", strconv.Itoa(smokeCfg.W)},
			legacy.Generator.worldArgs()...)...)
		if err != nil || res.ExitCode != 0 {
			t.Fatalf("adtrace over %s: exit %d, %v", path, res.ExitCode, err)
		}
		return classificationSection(t, res.Stdout)
	}
	if a, b := report(legacy.Path), report(lro); !bytes.Equal(a, b) {
		t.Errorf("classification differs.\nlegacy:\n%s\ncoalesced:\n%s", a, b)
	}
}

func TestKeyingMovesOnlyClientsAndClock(t *testing.T) {
	a, b := keyingFor(1), keyingFor(2)
	if a == b || a.mask == 0 || a.shift < 0 || a.shift >= windowWidth.Nanoseconds() {
		t.Fatalf("keyings %+v %+v", a, b)
	}
	if keyingFor(1) != a {
		t.Error("the same seed must give the same keying")
	}
	up := wire.Packet{Time: 100, SrcIP: 10, DstIP: 20, SrcPort: 40000, DstPort: 80}
	down := wire.Packet{Time: 100, SrcIP: 20, DstIP: 10, SrcPort: 443, DstPort: 40000}
	a.apply(&up)
	a.apply(&down)
	if up.SrcIP != 10^a.mask || up.DstIP != 20 || down.DstIP != 10^a.mask || down.SrcIP != 20 || up.Time != 100+a.shift {
		t.Errorf("rekeyed packets %+v %+v", up, down)
	}
}
