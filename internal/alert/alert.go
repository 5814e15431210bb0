// Package alert is a declarative rule engine over the telemetry registry:
// per-epoch evaluation of threshold, rate-of-change and absence rules against
// live dcfp_* series (including the forecast risk signal), with the
// pending → firing → resolved lifecycle familiar from Prometheus alerting.
//
// The engine is deliberately epoch-driven rather than wall-clock-driven: the
// daemon calls Eval once per observed epoch, so "for: 3" means three
// consecutive epochs in breach, replayable and deterministic under test.
package alert

import (
	"fmt"
	"sync"

	"dcfp/internal/metrics"
	"dcfp/internal/telemetry"
)

// Kind selects a rule's evaluation semantics.
type Kind string

const (
	// KindThreshold compares the metric's current value against Value.
	KindThreshold Kind = "threshold"
	// KindRate compares the change over the last Window epochs against
	// Value. The rule is in breach only once Window+1 samples exist.
	KindRate Kind = "rate"
	// KindAbsence breaches while the metric has no value in the registry.
	KindAbsence Kind = "absence"
)

// Op is a comparison operator for threshold and rate rules.
type Op string

const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
)

func (o Op) compare(a, b float64) bool {
	switch o {
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	}
	return false
}

// Rule is one declarative alerting rule. Rules are plain data so they load
// from JSON files (see LoadRules) and render back out on /alerts.
type Rule struct {
	// Name uniquely identifies the rule and labels its metrics and events.
	Name string `json:"name"`
	// Kind is threshold, rate or absence.
	Kind Kind `json:"kind"`
	// Metric is the registry series to watch, e.g. "dcfp_forecast_risk".
	Metric string `json:"metric"`
	// Labels narrows the watch to one labeled child (optional).
	Labels map[string]string `json:"labels,omitempty"`
	// Op and Value define the breach condition for threshold and rate
	// rules; absence rules ignore both.
	Op    Op      `json:"op,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Window is the look-back span in epochs for rate rules.
	Window int `json:"window,omitempty"`
	// For is how many consecutive breach epochs must accumulate before the
	// rule fires (0 and 1 both fire on the first breach).
	For int `json:"for,omitempty"`
	// Severity and Summary are carried verbatim into notifications.
	Severity string `json:"severity,omitempty"`
	Summary  string `json:"summary,omitempty"`
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule with empty name")
	}
	if r.Metric == "" {
		return fmt.Errorf("alert: rule %q has no metric", r.Name)
	}
	if r.For < 0 {
		return fmt.Errorf("alert: rule %q has negative for", r.Name)
	}
	switch r.Kind {
	case KindThreshold, KindRate:
		switch r.Op {
		case OpGT, OpGE, OpLT, OpLE:
		default:
			return fmt.Errorf("alert: rule %q has invalid op %q", r.Name, r.Op)
		}
		if r.Kind == KindRate && r.Window < 1 {
			return fmt.Errorf("alert: rate rule %q needs window >= 1", r.Name)
		}
	case KindAbsence:
	default:
		return fmt.Errorf("alert: rule %q has unknown kind %q", r.Name, r.Kind)
	}
	return nil
}

// State is a rule's position in the alert lifecycle.
type State string

const (
	// StateInactive: never fired, not currently in breach.
	StateInactive State = "inactive"
	// StatePending: in breach, but not yet for the rule's For epochs.
	StatePending State = "pending"
	// StateFiring: in breach for at least For consecutive epochs.
	StateFiring State = "firing"
	// StateResolved: fired at least once, breach since cleared.
	StateResolved State = "resolved"
)

// Notification describes one firing or resolution, delivered to the
// configured Notify hook (the daemon POSTs it to the -alert-webhook URL).
type Notification struct {
	Epoch    metrics.Epoch `json:"epoch"`
	Rule     string        `json:"rule"`
	State    State         `json:"state"` // firing or resolved
	Severity string        `json:"severity,omitempty"`
	Summary  string        `json:"summary,omitempty"`
	Metric   string        `json:"metric"`
	// Value is the metric value at the transition (meaningless for
	// absence rules, where the value is what's missing).
	Value        float64       `json:"value"`
	ValuePresent bool          `json:"value_present"`
	FiredAt      metrics.Epoch `json:"fired_at"`
}

// Config assembles an Engine.
type Config struct {
	// Rules to evaluate, validated by New.
	Rules []Rule
	// Registry supplies the watched values and hosts the dcfp_alert_*
	// series. nil disables both (the engine still tracks state).
	Registry *telemetry.Registry
	// Events receives alert.firing / alert.resolved events (nil-safe).
	Events *telemetry.EventLog
	// Audit, when set, receives one auditAlert value per transition —
	// the daemon appends it to the JSONL audit journal.
	Audit func(any)
	// Notify, when set, receives every firing and resolution.
	Notify func(Notification)
}

// auditAlert is the JSONL audit-journal line for one alert transition.
type auditAlert struct {
	Type         string        `json:"type"` // "alert"
	Epoch        metrics.Epoch `json:"epoch"`
	Rule         string        `json:"rule"`
	State        State         `json:"state"`
	Value        float64       `json:"value"`
	ValuePresent bool          `json:"value_present"`
}

// ruleState is the engine's per-rule working memory.
type ruleState struct {
	rule     Rule
	state    State
	since    metrics.Epoch // epoch of the last state change
	breach   int           // consecutive breach epochs
	firedAt  metrics.Epoch // start of the current/last firing (-1 = never)
	fired    uint64
	resolved uint64
	lastVal  float64
	lastOK   bool
	seen     bool // metric observed present at least once (arms absence rules)
	// ring holds the last Window+1 values for rate rules.
	ring  []float64
	ringN int

	stateG    *telemetry.Gauge
	firedC    *telemetry.Counter
	resolvedC *telemetry.Counter
}

// Engine evaluates rules once per epoch and answers /alerts snapshots. Safe
// for concurrent use: Eval and Snapshot take an internal mutex.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	rules  []*ruleState
	epoch  metrics.Epoch
	firing int
	// suppressAbsence holds absence rules out of breach until their metric
	// first reports a value (see SuppressAbsence).
	suppressAbsence bool

	firingG     *telemetry.Gauge
	evalsC      *telemetry.Counter
	suppressedG *telemetry.Gauge
}

// New validates the rules and builds an engine.
func New(cfg Config) (*Engine, error) {
	seen := make(map[string]bool, len(cfg.Rules))
	e := &Engine{cfg: cfg, epoch: -1}
	for _, r := range cfg.Rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("alert: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rs := &ruleState{rule: r, state: StateInactive, since: -1, firedAt: -1}
		if r.Kind == KindRate {
			rs.ring = make([]float64, r.Window+1)
		}
		e.rules = append(e.rules, rs)
		if reg := cfg.Registry; reg != nil {
			lbl := telemetry.Label{Key: "rule", Value: r.Name}
			rs.stateG = reg.Gauge("dcfp_alert_state",
				"Alert rule lifecycle state: 0 inactive, 1 pending, 2 firing, 3 resolved.", lbl)
			rs.firedC = reg.Counter("dcfp_alert_fired_total",
				"Alert rule transitions into firing.", lbl)
			rs.resolvedC = reg.Counter("dcfp_alert_resolved_total",
				"Alert rule transitions out of firing.", lbl)
		}
	}
	if reg := cfg.Registry; reg != nil {
		e.firingG = reg.Gauge("dcfp_alert_firing", "Alert rules currently firing.")
		e.evalsC = reg.Counter("dcfp_alert_evals_total", "Alert engine evaluation passes.")
		e.suppressedG = reg.Gauge("dcfp_alert_absence_suppressed",
			"Absence rules currently held out of breach by SuppressAbsence.")
		reg.Gauge("dcfp_alert_rules", "Alert rules loaded.").SetInt(int64(len(cfg.Rules)))
	}
	return e, nil
}

// SuppressAbsence holds every absence rule out of breach until its metric
// first reports a value. The daemon arms this before fast-forwarding a
// checkpoint restore: replayed epochs repopulate the telemetry series one by
// one, and without suppression every absence rule would fire spuriously in
// the gap between restore and the first fresh sample. Each rule re-arms
// itself the moment its metric appears; ResumeAbsence lifts the remainder
// once the fast-forward completes.
func (e *Engine) SuppressAbsence() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.suppressAbsence = true
}

// ResumeAbsence restores normal absence-rule evaluation: metrics still
// missing after this call are genuinely missing and breach as usual.
func (e *Engine) ResumeAbsence() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.suppressAbsence = false
}

// suppressedLocked reports whether rs is currently held out of breach.
func (e *Engine) suppressedLocked(rs *ruleState) bool {
	return e.suppressAbsence && rs.rule.Kind == KindAbsence && !rs.seen
}

// Eval runs every rule against the registry's current values for one epoch.
func (e *Engine) Eval(epoch metrics.Epoch) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch = epoch
	firing, suppressed := 0, 0
	for _, rs := range e.rules {
		e.evalRule(rs, epoch)
		if rs.state == StateFiring {
			firing++
		}
		if e.suppressedLocked(rs) {
			suppressed++
		}
	}
	e.firing = firing
	if e.firingG != nil {
		e.firingG.SetInt(int64(firing))
		e.suppressedG.SetInt(int64(suppressed))
		e.evalsC.Inc()
	}
}

func (e *Engine) evalRule(rs *ruleState, epoch metrics.Epoch) {
	var v float64
	ok := false
	if reg := e.cfg.Registry; reg != nil {
		v, ok = reg.Value(rs.rule.Metric, labelSlice(rs.rule.Labels)...)
	}
	rs.lastVal, rs.lastOK = v, ok
	if ok {
		rs.seen = true
	}

	breach := false
	switch rs.rule.Kind {
	case KindThreshold:
		breach = ok && rs.rule.Op.compare(v, rs.rule.Value)
	case KindRate:
		if ok {
			rs.ring[rs.ringN%len(rs.ring)] = v
			rs.ringN++
			if rs.ringN >= len(rs.ring) {
				oldest := rs.ring[rs.ringN%len(rs.ring)]
				breach = rs.rule.Op.compare(v-oldest, rs.rule.Value)
			}
		} else {
			// A gap breaks the delta chain; start over.
			rs.ringN = 0
		}
	case KindAbsence:
		breach = !ok && !e.suppressedLocked(rs)
	}

	switch {
	case breach && rs.state != StateFiring:
		if rs.state != StatePending {
			rs.state, rs.since, rs.breach = StatePending, epoch, 0
		}
		rs.breach++
		if rs.breach >= max(rs.rule.For, 1) {
			rs.state, rs.since, rs.firedAt = StateFiring, epoch, epoch
			rs.fired++
			if rs.firedC != nil {
				rs.firedC.Inc()
			}
			e.transition(rs, epoch, StateFiring)
		}
	case breach: // already firing
		rs.breach++
	case rs.state == StateFiring:
		rs.state, rs.since, rs.breach = StateResolved, epoch, 0
		rs.resolved++
		if rs.resolvedC != nil {
			rs.resolvedC.Inc()
		}
		e.transition(rs, epoch, StateResolved)
	case rs.state == StatePending:
		// Breach cleared before For accumulated; fall back.
		rs.breach = 0
		if rs.fired > 0 {
			rs.state, rs.since = StateResolved, epoch
		} else {
			rs.state, rs.since = StateInactive, epoch
		}
	}
	if rs.stateG != nil {
		rs.stateG.SetInt(stateOrdinal(rs.state))
	}
}

// transition emits the event, audit line and notification for a firing or
// resolution. Caller holds the mutex.
func (e *Engine) transition(rs *ruleState, epoch metrics.Epoch, to State) {
	e.cfg.Events.Event("alert."+string(to),
		"rule", rs.rule.Name, "epoch", int64(epoch),
		"metric", rs.rule.Metric, "value", rs.lastVal, "severity", rs.rule.Severity)
	if e.cfg.Audit != nil {
		e.cfg.Audit(auditAlert{
			Type: "alert", Epoch: epoch, Rule: rs.rule.Name, State: to,
			Value: rs.lastVal, ValuePresent: rs.lastOK,
		})
	}
	if e.cfg.Notify != nil {
		e.cfg.Notify(Notification{
			Epoch: epoch, Rule: rs.rule.Name, State: to,
			Severity: rs.rule.Severity, Summary: rs.rule.Summary,
			Metric: rs.rule.Metric, Value: rs.lastVal, ValuePresent: rs.lastOK,
			FiredAt: rs.firedAt,
		})
	}
}

// RuleStatus is one rule's externally visible state on /alerts.
type RuleStatus struct {
	Rule         Rule          `json:"rule"`
	State        State         `json:"state"`
	Since        metrics.Epoch `json:"since"`
	BreachEpochs int           `json:"breach_epochs,omitempty"`
	Value        float64       `json:"value"`
	ValuePresent bool          `json:"value_present"`
	FiredAt      metrics.Epoch `json:"fired_at"` // -1 = never fired
	FiredCount   uint64        `json:"fired_count"`
	ResolvedCnt  uint64        `json:"resolved_count"`
	// Suppressed marks an absence rule held out of breach by
	// SuppressAbsence, awaiting its metric's first sample.
	Suppressed bool `json:"suppressed,omitempty"`
}

// Snapshot is the /alerts payload.
type Snapshot struct {
	Epoch  metrics.Epoch `json:"epoch"` // last evaluated epoch, -1 before any
	Firing int           `json:"firing"`
	Rules  []RuleStatus  `json:"rules"`
}

// Snapshot reports every rule's current status.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{Epoch: -1, Rules: []RuleStatus{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{Epoch: e.epoch, Firing: e.firing, Rules: make([]RuleStatus, 0, len(e.rules))}
	for _, rs := range e.rules {
		s.Rules = append(s.Rules, RuleStatus{
			Rule: rs.rule, State: rs.state, Since: rs.since,
			BreachEpochs: rs.breach, Value: rs.lastVal, ValuePresent: rs.lastOK,
			FiredAt: rs.firedAt, FiredCount: rs.fired, ResolvedCnt: rs.resolved,
			Suppressed: e.suppressedLocked(rs),
		})
	}
	return s
}

func labelSlice(m map[string]string) []telemetry.Label {
	if len(m) == 0 {
		return nil
	}
	out := make([]telemetry.Label, 0, len(m))
	for k, v := range m {
		out = append(out, telemetry.Label{Key: k, Value: v})
	}
	return out
}

func stateOrdinal(s State) int64 {
	switch s {
	case StatePending:
		return 1
	case StateFiring:
		return 2
	case StateResolved:
		return 3
	}
	return 0
}
