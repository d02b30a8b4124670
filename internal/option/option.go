// Package option is the machinery behind package dpx10's options: the sealed
// Option interface, scopes, and the constructors dpx10's public options and
// the ablation-only arms of internal/bench and the tests are built with.
package option

import (
	"fmt"

	"github.com/dpx10/dpx10/internal/core"
)

// Option configures a run. The interface is satisfied through unexported
// methods whose signatures do not mention T, which is what lets an untyped
// option satisfy Option[T] for every T, and what keeps every implementation
// inside this package.
type Option[T any] interface {
	// applyTo receives a *core.Config[T]; implementations either use the
	// type-independent core.Common via the CommonConfig accessor or assert
	// the concrete config type.
	applyTo(cfg any)
	// info names the option and reports its scope.
	info() (name string, scope Scope)
}

// Scope classifies where an option may appear.
type Scope string

const (
	// ScopeCluster configures the places; valid in NewCluster and the
	// one-shot entry points, rejected by Submit.
	ScopeCluster Scope = "cluster"
	// ScopeJob configures one computation; valid in Submit and the one-shot
	// entry points, rejected by NewCluster.
	ScopeJob Scope = "job"
)

// ScopeError reports an option passed where its scope does not allow: a
// job-scoped option in NewCluster, or a cluster-scoped option in Submit.
// The one-shot entry points accept both scopes and never return it.
type ScopeError struct {
	// Option is the constructor name, e.g. "Places" or "WithTileSize".
	Option string
	// Scope is the option's scope: "cluster" or "job".
	Scope string
	// Call is where the option was misplaced: "NewCluster" or "Submit".
	Call string
}

func (e *ScopeError) Error() string {
	return fmt.Sprintf("dpx10: %s is a %s-scoped option and cannot be passed to %s", e.Option, e.Scope, e.Call)
}

// Apply applies opts to cfg in order. Each must have scope want; the first
// that does not is returned as a *ScopeError naming call, and cfg is then
// partly configured.
func Apply[T any](cfg *core.Config[T], want Scope, call string, opts ...Option[T]) error {
	for _, o := range opts {
		if name, scope := o.info(); scope != want {
			return &ScopeError{Option: name, Scope: string(scope), Call: call}
		}
		o.applyTo(cfg)
	}
	return nil
}

// Split divides a mixed option list by scope, keeping the order within each
// half.
func Split[T any](opts []Option[T]) (cluster []Option[any], job []Option[T]) {
	for _, o := range opts {
		if _, scope := o.info(); scope == ScopeCluster {
			cluster = append(cluster, o)
		} else {
			job = append(job, o)
		}
	}
	return cluster, job
}

// common mutates the type-independent half of the configuration.
type common struct {
	name  string
	scope Scope
	fn    func(*core.Common)
}

// applyTo is handed a *core.Config[T] by Apply, for some T it cannot name.
func (o common) applyTo(cfg any) {
	o.fn(cfg.(interface{ CommonConfig() *core.Common }).CommonConfig())
}

func (o common) info() (string, Scope) { return o.name, o.scope }

// Cluster builds a cluster-scoped untyped option named name: an Option[any],
// which satisfies Option[T] for every T.
func Cluster(name string, fn func(*core.Common)) Option[any] {
	return common{name: name, scope: ScopeCluster, fn: fn}
}

// Job builds a job-scoped untyped option named name.
func Job(name string, fn func(*core.Common)) Option[any] {
	return common{name: name, scope: ScopeJob, fn: fn}
}

// typed mutates the full, value-typed configuration. Every typed option is
// job-scoped: it configures the computation, not the places.
type typed[T any] struct {
	name string
	fn   func(*core.Config[T])
}

func (o typed[T]) applyTo(cfg any) {
	c, ok := cfg.(*core.Config[T])
	if !ok {
		panic(fmt.Sprintf("dpx10: option for value type %T applied to config %T", o, cfg))
	}
	o.fn(c)
}

func (o typed[T]) info() (string, Scope) { return o.name, ScopeJob }

// Typed builds a job-scoped option over the value-typed configuration.
func Typed[T any](name string, fn func(*core.Config[T])) Option[T] {
	return typed[T]{name: name, fn: fn}
}
