// Command gatesbench is the repository benchmark: it runs one GATES stream
// workload through the middleware's public API for a fixed wall time,
// verifies every delivered item, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a traced run) as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it carry the environment block, the layer ledger and any
// verification problems. Build and run it from the repository root with
//
//	bash gatesbench/run.sh --workload inproc_fanin --seed 1 --seconds 30 --trace 0
//
// The workloads are listed in BENCHMARK.json at the repository root; their
// loop types, rates, the layers each stresses and bypasses, and every metric
// definition are in README.md next to this file.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	part     bool // this process is one part of an untraced run
}

// parts is how many processes, one after another, an untraced run is split
// across. A process keeps some of its speed for its whole life (tcp_paced's
// CPU per packet differed by 8% between processes and by 2% between phases
// of one process), so the reported medians pool the trials of several.
const parts = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload returns: the per-trial samples of an untraced
// run (or the metrics of a traced one), its verification tally, and the
// ledger and notes printed ahead of the result line.
type report struct {
	samples map[string][]obsv
	metrics map[string]metric
	tally   tally
	ledger  map[string]any
	notes   []string
	layers  *layerSet
}

// obsv is one trial's (or window's) value of a metric and the host steal
// share while it was measured.
type obsv struct{ V, Steal float64 }

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) sample(name string, v, steal float64) {
	if r.samples == nil {
		r.samples = make(map[string][]obsv)
	}
	r.samples[name] = append(r.samples[name], obsv{v, steal})
}

// minSamples is the fewest samples a metric is reported from.
const minSamples = 3

// undisturbed returns the values of the samples measured while the host
// stole at most maxSteal of the CPU or, when fewer than minSamples were,
// of the minSamples least disturbed ones; how many it set aside; and the
// highest steal share among those it kept.
func undisturbed(ss []obsv) (vals []float64, setAside int, steal float64) {
	kept := make([]obsv, 0, len(ss))
	for _, s := range ss {
		if s.Steal <= maxSteal {
			kept = append(kept, s)
		}
	}
	if len(kept) < minSamples && len(kept) < len(ss) {
		kept = append(kept[:0], ss...)
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].Steal < kept[j].Steal })
		kept = kept[:min(minSamples, len(kept))]
	}
	for _, s := range kept {
		vals = append(vals, s.V)
		steal = max(steal, s.Steal)
	}
	return vals, len(ss) - len(kept), steal
}

// partResult is what one part process of an untraced run prints.
type partResult struct {
	Samples                                         map[string][]obsv
	Notes, Problems                                 []string
	Attempted, Lost, Dup, Reordered, Corrupt, Other int64
}

// runParts runs an untraced measurement as parts processes of this program
// in turn, each for an equal share of the run time, and reports the median
// of every end-to-end metric over all their undisturbed trials.
func runParts(o opts) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds/parts, 'g', -1, 64), "--part")
		cmd.Stderr = os.Stderr
		// A part must not outlive this process if something kills it. The
		// signal follows the thread that started the part, so that thread
		// is kept until the part has ended.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		runtime.LockOSThread()
		out, err := cmd.Output()
		runtime.UnlockOSThread()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p partResult
		if err := json.Unmarshal(out, &p); err != nil {
			return nil, fmt.Errorf("part %d: decode result: %w", i, err)
		}
		for name, ss := range p.Samples {
			for _, s := range ss {
				rep.sample(name, s.V, s.Steal)
			}
		}
		for _, n := range p.Notes {
			rep.notes = append(rep.notes, fmt.Sprintf("part %d: %s", i, n))
		}
		rep.tally.merge(&tally{attempted: p.Attempted, lost: p.Lost, dup: p.Dup, reordered: p.Reordered,
			corrupt: p.Corrupt, other: p.Other, problems: p.Problems})
	}
	names := make([]string, 0, len(rep.samples))
	for name := range rep.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make(map[string][]float64, len(names))
	for _, name := range names {
		xs, setAside, _ := undisturbed(rep.samples[name])
		vals[name] = xs
		if setAside > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: %d of %d samples set aside, taken while the host stole over %.0f%% of the CPU",
				name, setAside, len(rep.samples[name]), 100*maxSteal))
		}
		rep.notes = append(rep.notes, spread(name, xs))
	}
	for _, m := range endToEnd {
		if len(vals[m.name]) == 0 {
			return nil, fmt.Errorf("no samples of %s", m.name)
		}
		rep.set(m.name, median(vals[m.name]), m.unit)
	}
	return rep, nil
}

// printPart writes a part process's samples and tally as its only output.
func printPart(rep *report) error {
	t := rep.tally
	b, err := json.Marshal(partResult{Samples: rep.samples, Notes: rep.notes, Problems: t.problems,
		Attempted: t.attempted, Lost: t.lost, Dup: t.dup, Reordered: t.reordered, Corrupt: t.corrupt, Other: t.other})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

var workloads = map[string]func(opts) (*report, error){
	"inproc_fanin":    runInprocFanin,
	"tcp_paced":       runTCPPaced,
	"countsamps_4src": runCountSamps,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (inproc_fanin, tcp_paced, countsamps_4src)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.BoolVar(&o.part, "part", false, "run one part of an untraced run and print its raw samples (used by the run itself)")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || (o.part && o.trace) {
		fmt.Fprintf(os.Stderr, "gatesbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	if o.part {
		rep, err := run(o)
		if err == nil {
			err = printPart(rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatesbench: %s: %v\n", o.workload, err)
			os.Exit(1)
		}
		return
	}
	printLine("env", environment(o))
	if !o.trace {
		run = runParts
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatesbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if rep.ledger != nil {
		printLine("ledger", rep.ledger)
	}
	if rep.layers != nil {
		rep.notes = append(rep.notes, "bypassed (reported as 0): "+rep.layers.bypassed())
	}
	for _, n := range rep.notes {
		fmt.Println("note", n)
	}
	for _, p := range rep.tally.problems {
		fmt.Println("FAIL", p)
	}
	failed := rep.tally.failed()
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && rep.tally.attempted > 0, rep.tally.attempted, failed, rep.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatesbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatesbench: encode %s: %v\n", tag, err)
		return
	}
	fmt.Printf("%s %s\n", tag, b)
}

// environment is the machine and code identity a result is only comparable
// within: CPU model, core counts, Go version, source identity, seed and run
// length.
func environment(o opts) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"source_sha": sourceHash(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the working directory
// is a git checkout; a plain source tree reports "none" and is identified
// by source_sha instead.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under the working
// directory (build outputs excluded), so two results name the code they
// measured even outside a git checkout.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sample is a snapshot of the process counters a measured phase is charged
// with: wall time, user+system CPU, cumulative allocation, and GC cycles.
type sample struct {
	wall  time.Time
	cpuNS int64
	alloc uint64
	numGC uint32
	pause [256]uint64
	host  hostCPU
}

// processCPU returns the process's user plus system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		wall:  time.Now(),
		cpuNS: processCPU(),
		alloc: ms.TotalAlloc,
		numGC: ms.NumGC,
		pause: ms.PauseNs,
		host:  readHostCPU(),
	}
}

// hostCPU is the machine-wide CPU time split the kernel reports in
// /proc/stat, in clock ticks: all of it, and the part a hypervisor gave to
// other guests while this machine's CPUs wanted to run ("steal").
type hostCPU struct{ steal, total uint64 }

// readHostCPU returns the zero value where /proc/stat is unavailable, which
// reads as no steal.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as 0
		if i < 8 {                           // guest time is already inside user time
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the fraction of the machine's CPU time between a and b that
// the hypervisor withheld.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// maxSteal is the host steal share above which a trial or window counts as
// disturbed: the host, not the program, set its speed. Undisturbed runs of
// this benchmark measured 0.1-0.5%; episodes that froze the machine for tens
// of milliseconds at a time pushed tcp_paced's latency 100-fold.
const maxSteal = 0.02

// phase is the difference between two samples.
type phase struct {
	wallNS float64
	cpuNS  float64
	alloc  float64
	gcs    float64
	pauses []float64 // ns, the GC pauses that ended inside the phase
	steal  float64   // host steal share
}

func since(a sample) phase {
	b := takeSample()
	p := phase{
		wallNS: float64(b.wall.Sub(a.wall)),
		cpuNS:  float64(b.cpuNS - a.cpuNS),
		alloc:  float64(b.alloc - a.alloc),
		gcs:    float64(b.numGC - a.numGC),
		steal:  stealShare(a.host, b.host),
	}
	n := b.numGC - a.numGC
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		p.pauses = append(p.pauses, float64(b.pause[(b.numGC-i+255)%256]))
	}
	return p
}

// deadline returns when a run that started at start must stop starting new
// trials.
func deadline(start time.Time, o opts) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}

// runtimeLayer sets the runtime per-layer metrics from the measured phases.
func runtimeLayer(l *layerSet, phases []phase, items float64) {
	var gcs float64
	var pauses []float64
	for _, p := range phases {
		gcs += p.gcs
		pauses = append(pauses, p.pauses...)
	}
	if items > 0 {
		l.set("runtime.gc_cycles_per_mitem", gcs/items*1e6)
	}
	l.set("runtime.gc_pause_p99_us", quantile(pauses, 0.99)/1e3)
}
