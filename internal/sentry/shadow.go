package sentry

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vm"
	"repro/internal/workload"
)

// observation is one primary-side request handed to the comparator.
// A non-nil flush channel marks a Drain barrier instead.
type observation struct {
	endpoint   string
	primaryOut string
	flush      chan struct{}
}

// Observe offers one served request for shadow verification. endpoint
// is the workload endpoint name; primaryOut is the output the primary
// VM produced. The sampling decision is a deterministic hash of the
// observation sequence number, so a given (seed, rate, traffic order)
// always samples the same requests — the property the divergence
// bisection and the server-determinism tests rely on. Returns whether
// the request was sampled.
//
// A sampled request costs the caller one hash and one buffered
// channel send; the shadow execution and comparison happen on the
// comparator goroutine. The send blocks only when the queue is full
// (comparisons deliberately never get dropped: dropping under load
// would make verification counters timing-dependent).
func (m *Monitor) Observe(endpoint, primaryOut string) bool {
	if m == nil || m.threshold == 0 {
		return false
	}
	n := m.reqSeq.Add(1)
	if splitmix64(uint64(m.cfg.Seed)^n*0x9E3779B97F4A7C15) >= m.threshold {
		return false
	}
	m.sampled.Add(1)
	m.obs <- observation{endpoint: endpoint, primaryOut: primaryOut}
	return true
}

// Drain blocks until every observation enqueued before the call has
// been compared. Callers must Drain before reading Stats or Reports
// for deterministic results.
func (m *Monitor) Drain() {
	if m == nil || m.threshold == 0 {
		return
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return
	}
	ch := make(chan struct{})
	m.obs <- observation{flush: ch}
	<-ch
}

// comparatorLoop owns the shadow and replay VMs: one goroutine, so
// shadow heap state and the replay deny set need no locking.
func (m *Monitor) comparatorLoop() {
	defer m.wg.Done()
	for o := range m.obs {
		if o.flush != nil {
			close(o.flush)
			continue
		}
		m.compare(o)
	}
}

// compare re-executes one sampled request on the shadow interpreter
// (the semantic reference) and on the isolated replay VM (the
// published code), then cross-checks output bytes, rendered return
// values, and the shape digest. The primary only hands us its output
// bytes — its return value was already consumed — so return-value and
// shape comparisons run between replay and shadow, which exercise the
// same published translations the primary ran.
func (m *Monitor) compare(o observation) {
	sOut, sRet, sErr := m.runShadow(o.endpoint)
	if sErr != nil {
		// The reference itself failed; nothing sound to compare
		// against. (Endpoints are deterministic, so this indicates a
		// harness bug, not a code-cache fault.)
		return
	}
	m.shadowRuns.Add(1)
	rOut, rRet, rErr := m.runReplay(o.endpoint)

	primaryDiverged := o.primaryOut != sOut
	replayDiverged := rErr != nil || rOut != sOut || rRet != sRet
	if !primaryDiverged && !replayDiverged {
		return
	}
	m.divergences.Add(1)
	rep := m.bisect(o.endpoint, sOut, sRet)
	rep.PrimaryOutput = clip(o.primaryOut, 160)
	rep.ShadowOutput = clip(sOut, 160)
	rep.PrimaryDigest = outputDigest(o.primaryOut, rRet)
	rep.ShadowDigest = outputDigest(sOut, sRet)
	m.repMu.Lock()
	m.reports = append(m.reports, rep)
	m.repMu.Unlock()
}

// shadowRef is one memoized interpreter reference result.
type shadowRef struct {
	out, ret string
}

// runShadow returns the interpreter reference for one endpoint,
// executing the shadow VM on first use and serving the memo after
// (see the shadowMemo field for why memoizing is sound).
func (m *Monitor) runShadow(endpoint string) (out, ret string, err error) {
	if ref, ok := m.shadowMemo[endpoint]; ok {
		return ref.out, ref.ret, nil
	}
	out, ret, err = runOn(m.shadow, &m.shadowBuf, endpoint)
	if err == nil {
		m.shadowMemo[endpoint] = shadowRef{out: out, ret: ret}
	}
	return out, ret, err
}

// runReplay executes one endpoint request on the replay VM under the
// current deny set.
func (m *Monitor) runReplay(endpoint string) (out, ret string, err error) {
	return runOn(m.replay, &m.replayBuf, endpoint)
}

// MainEndpoint is the observation name for a request that executes
// the unit's pseudo-main (the hhvm CLI's request shape) rather than a
// workload endpoint wrapper.
const MainEndpoint = "(main)"

// runOn executes one endpoint request on v, capturing output into
// buf and rendering the return value. Only the comparator goroutine
// calls this, so the buffer swap needs no locking.
func runOn(v *vm.VM, buf *strings.Builder, endpoint string) (string, string, error) {
	buf.Reset()
	if endpoint == MainEndpoint {
		val, err := v.RunMain()
		ret := renderValue(val, 0)
		v.Heap.DecRef(val)
		return buf.String(), ret, err
	}
	fn, ok := v.Env.Unit.FuncByName(workload.EndpointFunc(endpoint))
	if !ok {
		return "", "", fmt.Errorf("sentry: undefined endpoint %s", endpoint)
	}
	val, err := v.CallFunc(fn, nil, nil)
	ret := renderValue(val, 0)
	v.Heap.DecRef(val)
	return buf.String(), ret, err
}

// outputDigest folds output bytes and the rendered return value into
// one FNV-1a word (the number divergence reports carry).
func outputDigest(out, ret string) uint64 {
	return fnvStr(fnvStr(fnvOffset, out), ret)
}

// renderValue renders a return value for comparison: scalars
// verbatim, arrays element-wise in iteration order, objects as class
// name plus shape slot names plus property values. This is the "shape
// digest" — it pins down the structural identity of the result graph
// across tiers. Reference-count operation counts are deliberately
// not part of the digest: refcount elision legitimately differs
// between the interpreter and optimized code.
func renderValue(v runtime.Value, depth int) string {
	const maxDepth, maxElems = 4, 24
	switch v.Kind {
	case types.KUninit:
		return "uninit"
	case types.KNull:
		return "null"
	case types.KBool:
		if v.AsBool() {
			return "true"
		}
		return "false"
	case types.KInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case types.KDbl:
		return strconv.FormatFloat(v.AsDbl(), 'g', -1, 64)
	case types.KStr:
		return strconv.Quote(v.AsStr().Data)
	case types.KArr:
		if v.AsArr() == nil {
			return "array(nil)"
		}
		if depth >= maxDepth {
			return "array(depth)"
		}
		var sb strings.Builder
		sb.WriteString("array[")
		n := 0
		v.AsArr().Each(func(k, e runtime.Value) bool {
			if n >= maxElems {
				sb.WriteString("...")
				return false
			}
			if n > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(renderValue(k, depth+1))
			sb.WriteString("=>")
			sb.WriteString(renderValue(e, depth+1))
			n++
			return true
		})
		sb.WriteByte(']')
		return sb.String()
	case types.KObj:
		if v.AsObj() == nil {
			return "obj(nil)"
		}
		if depth >= maxDepth {
			return v.AsObj().Class.Name + "{depth}"
		}
		var sb strings.Builder
		sb.WriteString(v.AsObj().Class.Name)
		sb.WriteByte('{')
		for i, p := range v.AsObj().Props {
			if i > 0 {
				sb.WriteByte(',')
			}
			if v.AsObj().Shape != nil && i < len(v.AsObj().Shape.Slots) {
				sb.WriteString(v.AsObj().Shape.Slots[i].Name)
				sb.WriteByte(':')
			}
			sb.WriteString(renderValue(p, depth+1))
		}
		sb.WriteByte('}')
		return sb.String()
	default:
		return "?"
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// splitmix64 is the same mixer the fault injector uses for its
// deterministic draw streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
