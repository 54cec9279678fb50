package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"adscape/internal/analyzer"
	"adscape/internal/weblog"
	"adscape/internal/wire"
)

const (
	fixtureLegacy    = "legacy"
	fixtureModern    = "modern"
	fixtureCoalesced = "coalesced"

	fixtureSites     = 200
	modernHTTPSShare = 0.95
	// worldSeed is the seed of the synthetic Web (sites, pages, filter lists)
	// every fixture is drawn from; the benchmark's own seed keys the
	// anonymisation and the capture clock instead (see keying).
	worldSeed = 2015

	// windowWidth and windowGrace are the serve-live daemon's -window and
	// -grace; the manifest's expected window count depends on the width.
	windowWidth = time.Minute
	windowGrace = 5 * time.Second

	// chunkPackets is how many packets one byte range of the paced replay
	// holds: about three ranges per one-minute window of the coalesced trace,
	// eleven of the legacy one.
	chunkPackets = 480
)

// Generator records how a fixture was made; with the same values and the same
// tools the same bytes come out.
type Generator struct {
	Preset    string  `json:"preset"`
	Scale     float64 `json:"scale"`
	Sites     int     `json:"sites"`
	WorldSeed int64   `json:"world_seed"`
	// Seed is the benchmark seed: it keys the rewrite of the generated trace.
	Seed       int64   `json:"seed"`
	HTTPSShare float64 `json:"https_share"`
	Coalesced  bool    `json:"coalesced"`
}

// Manifest describes one fixture and is the oracle for ops_failed: a batch run
// must report exactly HTTPTx transactions and TLSFlows flows over Packets
// packets, a serve run must leave exactly Windows window files.
type Manifest struct {
	Name      string    `json:"name"`
	File      string    `json:"file"`
	Generator Generator `json:"generator"`

	// SourcePackets counts the trace rbnsim generated; Packets, Bytes and the
	// capture span describe the fixture after the rewrite.
	SourcePackets int     `json:"source_packets"`
	Packets       int     `json:"packets"`
	Bytes         int64   `json:"bytes"`
	FirstNs       int64   `json:"first_ns"`
	LastNs        int64   `json:"last_ns"`
	SpanS         float64 `json:"capture_span_s"`
	Windows       int     `json:"expected_windows"`
	SHA256        string  `json:"sha256"`

	// HTTPTx, HTTPLog, TLSFlows and Gaps come from the sequential reference
	// analyzer (one goroutine, adtrace's default limits) over the fixture;
	// HTTPLog is an order-independent digest of the transaction log.
	// Coalescing keeps the log — setupFixture checks it against the same
	// packets uncoalesced — and legitimately moves the other two.
	HTTPTx   int    `json:"http_tx"`
	HTTPLog  string `json:"http_log_digest"`
	TLSFlows int    `json:"tls_flows"`
	Gaps     int    `json:"reassembly_gaps"`

	// Build cost, for the set-up layer metrics; SetupS is the whole cold
	// set-up of this invocation.
	SimulateS float64 `json:"simulate_s"`
	SortS     float64 `json:"sort_s"`
	SetupS    float64 `json:"setup_s"`
}

// Chunk is one byte range of the paced replay: bytes up to End are due when
// the capture clock reaches DueNs, the timestamp of the range's last packet.
type Chunk struct {
	End   int64
	DueNs int64
}

// Fixture is a manifest plus what only this process needs.
type Fixture struct {
	Manifest
	Path   string
	Index  []Chunk
	Reused bool
}

// Tools locates the binaries under test.
type Tools struct {
	Adtrace, Rbnsim, Tracesort string
}

// buildTools compiles the three commands from the repository at root into
// binDir. With a warm build cache this is a no-op check.
func buildTools(root, binDir string) (Tools, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return Tools{}, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return Tools{}, err
	}
	cmd := []string{"go", "build", "-C", root, "-o", abs + string(filepath.Separator),
		"./cmd/adtrace", "./cmd/rbnsim", "./cmd/tracesort"}
	if _, err := mustSucceed(cmd...); err != nil {
		return Tools{}, fmt.Errorf("building the commands under test: %w", err)
	}
	return Tools{
		Adtrace:   filepath.Join(abs, "adtrace"),
		Rbnsim:    filepath.Join(abs, "rbnsim"),
		Tracesort: filepath.Join(abs, "tracesort"),
	}, nil
}

func generatorFor(kind string, seed int64, scale float64) Generator {
	g := Generator{Preset: "rbn2", Scale: scale, Sites: fixtureSites, WorldSeed: worldSeed, Seed: seed}
	switch kind {
	case fixtureModern:
		g.HTTPSShare = modernHTTPSShare
	case fixtureCoalesced:
		g.Coalesced = true
	}
	return g
}

// worldArgs are the flags adtrace needs to rebuild the generator's world.
func (g Generator) worldArgs() []string {
	args := []string{"-sites", strconv.Itoa(g.Sites), "-seed", strconv.FormatInt(g.WorldSeed, 10)}
	if g.HTTPSShare > 0 {
		args = append(args, "-https-share", strconv.FormatFloat(g.HTTPSShare, 'g', -1, 64))
	}
	return args
}

var simulatedPackets = regexp.MustCompile(`(\d+) packets`)

// makeFixture generates one fixture into dir, cold: simulate, sort, rewrite
// (rekey by the seed, coalesce if asked), index. It
// returns the fixture without the reference counts and hash, which
// describeFixture adds outside the timed set-up, and leaves the sorted trace
// it was made from at sortedPath for that.
func makeFixture(tools Tools, dir, kind string, g Generator) (fx *Fixture, sortedPath string, err error) {
	fail := func(err error) (*Fixture, string, error) { return nil, "", err }
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	raw := filepath.Join(dir, kind+".raw")
	ordered := filepath.Join(dir, kind+".sorted")
	path := filepath.Join(dir, kind+".trace")
	start := time.Now()

	sim, err := mustSucceed(append([]string{tools.Rbnsim, "-preset", g.Preset,
		"-scale", strconv.FormatFloat(g.Scale, 'g', -1, 64), "-o", raw}, g.worldArgs()...)...)
	if err != nil {
		return fail(err)
	}
	// Spill runs go next to the fixture, not to the OS temp directory: the
	// benchmark writes only inside its work dir.
	srt, err := mustSucceed(tools.Tracesort, "-i", raw, "-o", ordered, "-tmp", dir)
	if err != nil {
		return fail(err)
	}
	if err := os.Remove(raw); err != nil {
		return fail(err)
	}
	if _, err := rewriteTrace(ordered, path, rewrite{key: keyingFor(g.Seed), coalesce: g.Coalesced}); err != nil {
		return fail(fmt.Errorf("rewriting %s: %w", ordered, err))
	}
	fx, err = scanFixture(path)
	if err != nil {
		return fail(err)
	}
	fx.Name, fx.Generator = kind, g
	if m := simulatedPackets.FindSubmatch(sim.Stderr); m != nil {
		fx.SourcePackets, _ = strconv.Atoi(string(m[1])) // absent only if rbnsim's log line changes
	}
	fx.SimulateS, fx.SortS = sim.Wall.Seconds(), srt.Wall.Seconds()
	fx.SetupS = time.Since(start).Seconds()
	return fx, ordered, nil
}

// scanFixture reads the fixture at path once and builds the replay index
// (chunkPackets packets per byte range) and the size part of the manifest.
func scanFixture(path string) (*Fixture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := wire.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fx := &Fixture{Path: path}
	fx.File = filepath.Base(path)
	for {
		p, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if fx.Packets == 0 {
			fx.FirstNs = p.Time
		}
		fx.Packets++
		fx.LastNs, fx.Bytes = p.Time, r.Offset()
		if fx.Packets%chunkPackets == 0 {
			fx.Index = append(fx.Index, Chunk{End: fx.Bytes, DueNs: p.Time})
		}
	}
	if fx.Packets == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	if n := len(fx.Index); n == 0 || fx.Index[n-1].End != fx.Bytes {
		fx.Index = append(fx.Index, Chunk{End: fx.Bytes, DueNs: fx.LastNs})
	}
	fx.SpanS = float64(fx.LastNs-fx.FirstNs) / 1e9
	w := windowWidth.Nanoseconds()
	fx.Windows = int(fx.LastNs/w-fx.FirstNs/w) + 1
	return fx, nil
}

// adtraceLimits are the bounds cmd/adtrace applies when none of its limit
// flags is given (its flag defaults are exactly these), so the in-process
// reference and replays count what the subprocess counts.
func adtraceLimits() analyzer.Limits { return analyzer.DefaultLimits() }

// logDigest is an analyzer sink that folds the HTTP transaction log into an
// order-independent digest and keeps nothing.
type logDigest struct{ sum uint64 }

func (d *logDigest) HTTP(t *weblog.Transaction) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *t)
	d.sum += h.Sum64()
}

func (d *logDigest) TLS(*weblog.TLSFlow) {}

// reference is what the sequential reference analyzer (one goroutine,
// adtrace's default limits) makes of a trace.
type reference struct {
	Packets, HTTPTx, TLSFlows, Gaps int
	HTTPLog                         string
}

// referencePass analyzes the trace in src, rekeyed on the way the same way
// rewriteTrace does.
func referencePass(src io.Reader, key keying) (reference, error) {
	r, err := wire.NewReaderOptions(src, wire.ReaderOptions{Lenient: true})
	if err != nil {
		return reference{}, err
	}
	var log logDigest
	a := analyzer.NewWithLimits(&log, adtraceLimits())
	for {
		p, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return reference{}, err
		}
		key.apply(p)
		a.Add(p)
	}
	a.Finish()
	st := a.Stats()
	return reference{st.Packets, st.HTTPTransactions, st.TLSFlows, a.TableStats().Gaps, strconv.FormatUint(log.sum, 16)}, nil
}

// describeFixture fills in the oracle: record counts from the reference
// analyzer, and the file hash. For a coalesced fixture it also holds the
// coalescer to its promise: the same packets of sortedPath, uncoalesced, must
// yield the same HTTP transaction log. That is the run-time guard on
// seqMirror, which copies the rules of wire's reassembler.
func describeFixture(fx *Fixture, sortedPath string) error {
	f, err := os.Open(fx.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	ref, err := referencePass(io.TeeReader(f, h), keying{})
	if err != nil {
		return fmt.Errorf("reference pass over %s: %w", fx.Path, err)
	}
	if ref.Packets != fx.Packets {
		return fmt.Errorf("reference pass read %d packets, scan counted %d", ref.Packets, fx.Packets)
	}
	fx.HTTPTx, fx.HTTPLog, fx.TLSFlows, fx.Gaps = ref.HTTPTx, ref.HTTPLog, ref.TLSFlows, ref.Gaps
	fx.SHA256 = hex.EncodeToString(h.Sum(nil))
	if !fx.Generator.Coalesced {
		return nil
	}
	src, err := os.Open(sortedPath)
	if err != nil {
		return err
	}
	defer src.Close()
	plain, err := referencePass(src, keyingFor(fx.Generator.Seed))
	if err != nil {
		return fmt.Errorf("reference pass over %s: %w", sortedPath, err)
	}
	if plain.HTTPTx != fx.HTTPTx || plain.HTTPLog != fx.HTTPLog {
		return fmt.Errorf("coalescing changed the HTTP transaction log: %d transactions (digest %s) from %d packets, %d (digest %s) once coalesced into %d",
			plain.HTTPTx, plain.HTTPLog, plain.Packets, fx.HTTPTx, fx.HTTPLog, fx.Packets)
	}
	return nil
}

func manifestPath(dir, kind string) string { return filepath.Join(dir, kind+".manifest.json") }

func writeManifest(dir string, fx *Fixture) error {
	data, err := json.MarshalIndent(fx.Manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath(dir, fx.Name), append(data, '\n'), 0o644)
}

// loadFixture returns the fixture a previous invocation left in dir when its
// generator parameters and file hash still match, nil otherwise.
func loadFixture(dir, kind string, g Generator) (*Fixture, error) {
	data, err := os.ReadFile(manifestPath(dir, kind))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath(dir, kind), err)
	}
	if m.Generator != g {
		return nil, nil
	}
	fx, err := scanFixture(filepath.Join(dir, m.File))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sum, err := fileSHA256(fx.Path)
	if err != nil {
		return nil, err
	}
	if sum != m.SHA256 || fx.Packets != m.Packets {
		return nil, nil
	}
	fx.Manifest, fx.Reused = m, true
	return fx, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setupFixture produces the fixture for kind in dir. A matching fixture
// already there is reused (only -fixtures directories outlive an invocation);
// otherwise it is generated cold, once, and that is setup_s.
func setupFixture(tools Tools, dir, kind string, seed int64, scale float64) (*Fixture, error) {
	g := generatorFor(kind, seed, scale)
	if fx, err := loadFixture(dir, kind, g); err != nil || fx != nil {
		return fx, err
	}
	fx, sortedPath, err := makeFixture(tools, dir, kind, g)
	if err != nil {
		return nil, err
	}
	if err := describeFixture(fx, sortedPath); err != nil {
		return nil, err
	}
	if err := os.Remove(sortedPath); err != nil {
		return nil, err
	}
	return fx, writeManifest(dir, fx)
}
