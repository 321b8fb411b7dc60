// Package engine mirrors the shape of tintin/internal/engine for the
// hotpathcompile fixture: prepare/newExec are the compilation intrinsics,
// and the exported entry points either stay on the compiled side
// (QueryLimitInto) or can fall into compilation (PrepareView, Query).
package engine

type Engine struct {
	plans map[string]*Plan
}

type Plan struct {
	eng  *Engine
	name string
}

func (e *Engine) prepare(name string) *Plan {
	return &Plan{eng: e, name: name} // stands in for full plan construction
}

func (e *Engine) newExec(name string) *Plan {
	return &Plan{eng: e, name: name}
}

// PrepareView is the cache-or-compile lookup: a hit is free, a miss
// compiles. Reaching it from the commit path is flaggable.
func (e *Engine) PrepareView(name string) *Plan {
	if p, ok := e.plans[name]; ok {
		return p
	}
	p := e.prepare(name)
	e.plans[name] = p
	return p
}

// Query is the ad-hoc path: compile, then run.
func (e *Engine) Query(name string) int { return e.newExec(name).QueryLimitInto(0) }

// QueryLimitInto executes a compiled plan and only ever touches the
// compiled artifact: no fact.
func (p *Plan) QueryLimitInto(limit int) int { return len(p.name) - limit }
