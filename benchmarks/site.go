package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/vm"
	"repro/internal/workload"
)

// goldenFile holds the expected guest output of every endpoint, one
// `name<TAB>quoted-output` record per line. It is checked against an
// interpreter-only engine during setup and against every timed
// request, so the JIT under test is never its own reference.
//
//go:embed golden/site.txt
var goldenFile string

const goldenPath = "benchmarks/golden/site.txt"

// blockBase is the nominal block length: endpoint i appears
// max(1, round(blockBase·Weight_i)) times.
const blockBase = 200

// site is the generated input every workload runs: the combined
// endpoint source, the expected output per endpoint, and the weighted
// request mix.
type site struct {
	src    string
	eps    []workload.Endpoint
	golden [][]byte // expected output, indexed like eps
	mix    []int    // endpoint indices, weighted, unshuffled
}

func newSite() (*site, error) {
	src, eps := workload.Combined()
	s := &site{src: src, eps: eps}
	want, err := parseGolden(goldenFile)
	if err != nil {
		return nil, err
	}
	for i, ep := range eps {
		out, ok := want[ep.Name]
		if !ok {
			return nil, fmt.Errorf("golden file has no record for endpoint %s", ep.Name)
		}
		s.golden = append(s.golden, []byte(out))
		n := int(math.Round(blockBase * ep.Weight))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			s.mix = append(s.mix, i)
		}
	}
	if len(want) != len(eps) {
		return nil, fmt.Errorf("golden file has %d records, the suite has %d endpoints", len(want), len(eps))
	}
	return s, nil
}

func parseGolden(text string) (map[string]string, error) {
	want := map[string]string{}
	for n, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		name, quoted, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("golden line %d: no tab", n+1)
		}
		out, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, fmt.Errorf("golden line %d: %w", n+1, err)
		}
		want[name] = out
	}
	return want, nil
}

// block returns a permutation of the weighted mix drawn from rng: the
// unit of traffic every timed phase replays.
func (s *site) block(rng *rand.Rand) []int {
	b := append([]int(nil), s.mix...)
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// checkGolden runs every endpoint once on a fresh interpreter-only
// engine and fails if any output differs from the golden file.
func (s *site) checkGolden(unit *hhbc.Unit) error {
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeInterp
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		return err
	}
	c := newClient(s, eng.VM)
	for i, ep := range s.eps {
		if !c.request(i) {
			return fmt.Errorf("golden mismatch on %s: interpreter printed %q, %s has %q (%v)",
				ep.Name, c.out.String(), goldenPath, s.golden[i], c.err)
		}
	}
	return nil
}

// goldenFromInterp renders a golden file from an interpreter-only
// engine (the -update-golden flag).
func goldenFromInterp() (string, error) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		return "", err
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeInterp
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		return "", err
	}
	s := &site{eps: eps, golden: make([][]byte, len(eps))}
	c := newClient(s, eng.VM)
	var sb strings.Builder
	for i, ep := range eps {
		c.request(i)
		if c.err != nil {
			return "", fmt.Errorf("endpoint %s: %w", ep.Name, c.err)
		}
		fmt.Fprintf(&sb, "%s\t%s\n", ep.Name, strconv.Quote(c.out.String()))
	}
	return sb.String(), nil
}

// client issues requests to one VM in a closed loop and checks every
// response against the golden output. It reuses one output buffer so
// the harness adds no allocations to the measured phase.
type client struct {
	site      *site
	vm        *vm.VM
	funcs     []*hhbc.Func
	spanNames []string // per endpoint, for traced requests
	out       bytes.Buffer
	err       error // last request's guest error

	attempted, failed int
}

func newClient(s *site, v *vm.VM) *client {
	c := &client{site: s, vm: v}
	for _, ep := range s.eps {
		f, ok := v.Env.Unit.FuncByName(workload.EndpointFunc(ep.Name))
		if !ok {
			panic("combined unit lacks " + workload.EndpointFunc(ep.Name))
		}
		c.funcs = append(c.funcs, f)
		c.spanNames = append(c.spanNames, "vm.CallFunc "+f.Name)
	}
	v.SetOut(&c.out)
	return c
}

// request runs endpoint ep once and reports whether it succeeded with
// exactly the golden output.
func (c *client) request(ep int) bool {
	c.out.Reset()
	val, err := c.vm.CallFunc(c.funcs[ep], nil, nil)
	c.vm.Heap.DecRef(val)
	c.err = err
	c.attempted++
	if err != nil || !bytes.Equal(c.out.Bytes(), c.site.golden[ep]) {
		c.failed++
		return false
	}
	return true
}

// replay issues one block of requests.
func (c *client) replay(block []int) {
	for _, ep := range block {
		c.request(ep)
	}
}

// roundRobin issues rounds passes over the endpoints in suite order
// (the warmup traffic shape the repo's other harnesses use).
func (c *client) roundRobin(rounds int) {
	for r := 0; r < rounds; r++ {
		for ep := range c.site.eps {
			c.request(ep)
		}
	}
}
