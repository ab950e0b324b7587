package main

import (
	"fmt"
	"strconv"
	"strings"
)

// The output checks need the policy's meaning without asking the program
// for it, so this file reads the fv script text itself: filter lines give
// app → leaf class, class lines give the hierarchy with its priorities,
// weights and guarantees. It understands only the options the workloads'
// scripts use.

// scriptClass is one class line of an fv script.
type scriptClass struct {
	name, parent  string
	prio          int
	weight        float64
	guaranteeGbps float64
}

// scriptPolicy is the part of an fv script the checks rely on.
type scriptPolicy struct {
	rootGbps float64
	root     string
	classes  map[string]*scriptClass
	children map[string][]string // in script order
	appLeaf  map[int]string
}

// parseScript reads the qdisc, class and filter lines of an fv script.
func parseScript(text string) (*scriptPolicy, error) {
	p := &scriptPolicy{
		classes:  map[string]*scriptClass{},
		children: map[string][]string{},
		appLeaf:  map[int]string{},
	}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "fv" {
			continue
		}
		opts := map[string]string{}
		for i := 2; i+1 < len(f); i++ {
			opts[f[i]] = f[i+1]
		}
		switch f[1] {
		case "qdisc":
			g, err := gbps(opts["rate"])
			if err != nil {
				return nil, err
			}
			p.rootGbps, p.root = g, opts["handle"]
		case "class":
			c := &scriptClass{name: opts["classid"], parent: opts["parent"], weight: 1}
			if v, ok := opts["prio"]; ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("class %s: prio %q", c.name, v)
				}
				c.prio = n
			}
			if v, ok := opts["weight"]; ok {
				w, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("class %s: weight %q", c.name, v)
				}
				c.weight = w
			}
			if v, ok := opts["guarantee"]; ok {
				g, err := gbps(v)
				if err != nil {
					return nil, err
				}
				c.guaranteeGbps = g
			}
			p.classes[c.name] = c
			p.children[c.parent] = append(p.children[c.parent], c.name)
		case "filter":
			app, err := strconv.Atoi(opts["app"])
			if err != nil {
				return nil, fmt.Errorf("filter without a numeric app: %q", line)
			}
			p.appLeaf[app] = opts["flowid"]
		}
	}
	if p.root == "" || p.rootGbps <= 0 || len(p.appLeaf) == 0 {
		return nil, fmt.Errorf("script has no root qdisc rate or no filters")
	}
	return p, nil
}

// gbps parses a rate such as "10gbit" or "2gbit".
func gbps(s string) (float64, error) {
	v, ok := strings.CutSuffix(s, "gbit")
	if !ok {
		return 0, fmt.Errorf("rate %q: want <n>gbit", s)
	}
	return strconv.ParseFloat(v, 64)
}

// leafNames returns, for apps 0..n-1, the leaf class each app's traffic
// must be labelled with.
func (p *scriptPolicy) leafNames(n int) ([]string, error) {
	out := make([]string, n)
	for a := range out {
		leaf, ok := p.appLeaf[a]
		if !ok {
			return nil, fmt.Errorf("no filter for app %d", a)
		}
		out[a] = leaf
	}
	return out, nil
}

// expectedGbps is the rate each active app's leaf is entitled to when
// every active app is backlogged: at each node, active children first
// receive their guarantees; the rest goes to the most favoured (lowest
// prio) active children, split by weight. Inactive apps get 0.
func (p *scriptPolicy) expectedGbps(active []bool) []float64 {
	leafRate := map[string]float64{}
	p.share(p.root, p.rootGbps, p.activeLeaves(active), leafRate)
	out := make([]float64, len(active))
	for a := range active {
		if active[a] {
			out[a] = leafRate[p.appLeaf[a]]
		}
	}
	return out
}

func (p *scriptPolicy) activeLeaves(active []bool) map[string]bool {
	set := map[string]bool{}
	for a, on := range active {
		if on {
			set[p.appLeaf[a]] = true
		}
	}
	return set
}

// busy reports whether any leaf under name carries an active app.
func (p *scriptPolicy) busy(name string, leaves map[string]bool) bool {
	kids := p.children[name]
	if len(kids) == 0 {
		return leaves[name]
	}
	for _, k := range kids {
		if p.busy(k, leaves) {
			return true
		}
	}
	return false
}

func (p *scriptPolicy) share(name string, gbps float64, leaves map[string]bool, out map[string]float64) {
	kids := p.children[name]
	if len(kids) == 0 {
		out[name] = gbps
		return
	}
	var act []*scriptClass
	for _, k := range kids {
		if p.busy(k, leaves) {
			act = append(act, p.classes[k])
		}
	}
	if len(act) == 0 {
		return
	}
	alloc := make([]float64, len(act))
	rest := gbps
	for i, c := range act {
		alloc[i] = min(c.guaranteeGbps, rest)
		rest -= alloc[i]
	}
	top := act[0].prio
	for _, c := range act {
		if c.prio < top {
			top = c.prio
		}
	}
	var wsum float64
	for _, c := range act {
		if c.prio == top {
			wsum += c.weight
		}
	}
	for i, c := range act {
		if c.prio == top {
			alloc[i] += rest * c.weight / wsum
		}
		p.share(c.name, alloc[i], leaves, out)
	}
}
