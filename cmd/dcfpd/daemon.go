package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"dcfp/internal/alert"
	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/ident"
	"dcfp/internal/incident"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// adviceRingSize bounds the advice history kept for /crises.
const adviceRingSize = 128

// daemon owns the monitor and the bookkeeping the HTTP endpoints read. The
// monitor is single-goroutine; the daemon wraps all access (the epoch loop
// and the HTTP snapshot functions) in one mutex.
type daemon struct {
	cfg  *config
	mcfg monitor.Config

	mu        sync.Mutex
	mon       *monitor.Monitor
	ing       *monitor.Ingestor
	op        *monitor.Operator // simulated operator; nil with -resolve-after 0
	start     time.Time
	advice    []monitor.Advice
	emitted   int64 // source epochs ingested (checkpoint fast-forward, -max-epochs, cadence)
	adviceW   *os.File
	auditW    *os.File
	tracer    *telemetry.Tracer
	incidents *incident.Builder
	score     *monitor.Scoreboard
	hist      *telemetry.History
	engine    *alert.Engine
	resumeAt  int64 // emissions count at which suppressed absence rules resume (0 = not suppressed)
	uptime    *telemetry.Gauge
	coord     *fleet.Coordinator      // coordinator role only
	fleet     *fleet.CoordinatorState // coordinator progress restored from a checkpoint
}

// newDaemon assembles the monitor pipeline and everything that hangs off
// it: simulated operator, scoreboard, incident builder, metric history,
// alert engine, and the advice/audit journals. notify (default: the
// -alert-webhook poster, if configured) receives every alert transition
// after the incident builder has.
func newDaemon(c *config, mcfg monitor.Config, notify func(alert.Notification)) (*daemon, error) {
	reg := mcfg.Telemetry
	d := &daemon{cfg: c, mcfg: mcfg, start: time.Now(), tracer: mcfg.Tracer,
		score:     monitor.NewScoreboard(reg),
		incidents: incident.New(incident.Config{Registry: reg}),
		uptime:    uptimeGauge(reg)}
	if err := d.buildPipeline(); err != nil {
		return nil, err
	}
	if c.historyRaw > 0 {
		d.hist = telemetry.NewHistory(reg, telemetry.HistoryConfig{RawCapacity: c.historyRaw})
	}
	rules := alert.DefaultRules()
	if c.alertRules != "" {
		var err error
		if rules, err = alert.LoadRules(c.alertRules); err != nil {
			return nil, err
		}
	}
	// Every alert transition lands in the open incident report (if a
	// crisis is active); the caller's hook is chained behind.
	acfg := alert.Config{Rules: rules, Registry: reg, Events: mcfg.Events, Audit: d.audit,
		Notify: d.incidents.Alert}
	if notify == nil && c.alertWebhook != "" {
		notify = webhookNotifier(c.alertWebhook, reg)
	}
	if notify != nil {
		acfg.Notify = func(n alert.Notification) {
			d.incidents.Alert(n)
			notify(n)
		}
	}
	var err error
	if d.engine, err = alert.New(acfg); err != nil {
		return nil, err
	}
	if d.adviceW, err = openJournal(c.adviceOut); err != nil {
		return nil, err
	}
	if d.auditW, err = openJournal(c.auditOut); err != nil {
		return nil, err
	}
	return d, nil
}

// buildPipeline assembles a cold monitor + ingestor + operator; used at
// startup and again when a corrupt checkpoint forces a cold restart (the
// registry hands back the already-registered collectors).
func (d *daemon) buildPipeline() error {
	mon, err := monitor.New(d.mcfg)
	if err != nil {
		return err
	}
	ing, err := monitor.NewIngestor(mon, monitor.IngestConfig{
		ReorderWindow: d.cfg.reorderWindow,
		Telemetry:     d.mcfg.Telemetry,
	})
	if err != nil {
		return err
	}
	d.mon, d.ing, d.op = mon, ing, nil
	if d.cfg.resolveAfter > 0 {
		d.op = monitor.NewOperator(mon, d.score, d.cfg.resolveAfter)
	}
	return nil
}

// openJournal opens path for appending JSON lines; "" means no journal.
func openJournal(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// close releases the journals (Close on a nil *os.File is a no-op error).
func (d *daemon) close() {
	d.adviceW.Close()
	d.auditW.Close()
}

// auditLine is one line of the audit journal, exactly one payload set:
// "advice" is an identification decision, explanation included; "resolve" a
// scored operator diagnosis (truth label, whether the crisis was known at
// identification time, the vote sequence, the §4.3 verdict), flattened into
// the line; "incident" the completed incident report, written when that
// resolution closes the crisis's paper trail, bit-identical to the
// /incidents/{id} payload at that moment.
type auditLine struct {
	Type   string          `json:"type"`
	Advice *monitor.Advice `json:"advice,omitempty"`
	*monitor.Resolution
	Incident *incident.Report `json:"incident,omitempty"`
}

// audit appends one JSON line to the audit journal; a no-op without
// -audit-out.
func (d *daemon) audit(v any) {
	if d.auditW == nil {
		return
	}
	if b, err := json.Marshal(v); err == nil {
		fmt.Fprintf(d.auditW, "%s\n", b)
	}
}

// step feeds one (possibly faulty) source-epoch emission through the
// ingestor and advances the simulated operator for every epoch report the
// sequencer released.
func (d *daemon) step(ep dcsim.FaultyEpoch) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.emitted++
	reps, err := d.ing.Ingest(metrics.Epoch(ep.Epoch), ep.Rows)
	if err != nil {
		return err
	}
	for _, rep := range reps {
		if err := d.observe(rep, ep.Active); err != nil {
			return err
		}
	}
	return nil
}

// observe runs the per-report bookkeeping: incident window, forecast
// scoring, advice journals, the simulated operator, alerts, history. Caller
// holds the mutex.
func (d *daemon) observe(rep *monitor.EpochReport, active *crisis.Instance) error {
	// Feed the incident builder first so the detection epoch's report
	// (forecast lead included) opens the incident window.
	activeID := ""
	if rep.CrisisActive {
		activeID = d.mon.ActiveCrisisID()
	}
	d.incidents.Observe(rep, activeID)
	// Score the forecast stage's resolved warning episodes: a detection
	// with lead earns a negative TTI observation, an expired episode a
	// false-alarm count.
	if rep.Forecast.Enabled {
		if rep.Forecast.DetectionLead > 0 {
			d.score.RecordForecast(rep.Forecast.DetectionLead, true)
		}
		if rep.Forecast.FalseAlarm {
			d.score.RecordForecast(0, false)
		}
	}
	if rep.Advice != nil {
		if len(d.advice) == adviceRingSize {
			d.advice = d.advice[1:]
		}
		d.advice = append(d.advice, *rep.Advice)
		if d.adviceW != nil {
			if b, err := json.Marshal(rep.Advice); err == nil {
				fmt.Fprintf(d.adviceW, "%s\n", b)
			}
		}
		d.audit(auditLine{Type: "advice", Advice: rep.Advice})
	}
	truth := ""
	if active != nil {
		truth = active.Type.String()
	}
	filed, err := d.op.Observe(rep, truth)
	for _, r := range filed {
		d.journalResolution(r)
	}
	if err != nil {
		return err
	}

	// With the epoch's gauges settled, run the alert rules and then record
	// the registry (alert states included) into the history rings. Absence
	// rules suppressed across a checkpoint restore resume wholesale once
	// the fast-forward window (one checkpoint interval) has replayed; rules
	// whose series reappeared sooner have already re-armed individually.
	if d.resumeAt > 0 && d.emitted >= d.resumeAt {
		d.engine.ResumeAbsence()
		d.resumeAt = 0
	}
	d.uptime.Set(time.Since(d.start).Seconds())
	d.engine.Eval(rep.Epoch)
	d.hist.Sample(int64(rep.Epoch))
	return nil
}

// journalResolution writes one scored diagnosis to the audit journal and
// completes its incident artifact. Caller holds the mutex.
func (d *daemon) journalResolution(r monitor.Resolution) {
	if !r.Scored {
		return
	}
	d.audit(auditLine{Type: "resolve", Resolution: &r})
	// Journal the exact report /incidents/{id} now serves.
	if rep, ok := d.incidents.Resolve(r.Epoch, r.CrisisID, r.Truth, r.Known, r.Votes, r.Outcome); ok {
		d.audit(auditLine{Type: "incident", Incident: &rep})
	}
}

// webhookQueueSize bounds queued alert webhook deliveries. Rule
// transitions are rare, so a small buffer rides out a slow receiver;
// anything beyond it is dropped and counted rather than accumulating a
// goroutine per notification behind a dead endpoint.
const webhookQueueSize = 64

// webhookNotifier returns an alert Notify hook that POSTs each transition
// to url as JSON. Delivery runs on one worker behind a small buffered
// queue: a dead or slow receiver must never stall the epoch loop, and once
// the queue fills further notifications are dropped and counted in
// dcfp_alert_webhook_dropped_total.
func webhookNotifier(url string, reg *telemetry.Registry) func(alert.Notification) {
	client := &http.Client{Timeout: 5 * time.Second}
	dropped := reg.Counter("dcfp_alert_webhook_dropped_total",
		"Alert webhook notifications dropped because the delivery queue was full.")
	queue := make(chan []byte, webhookQueueSize)
	go func() {
		for body := range queue {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				log.Printf("WARNING: alert webhook: %v", err)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return func(n alert.Notification) {
		body, err := json.Marshal(n)
		if err != nil {
			return
		}
		select {
		case queue <- body:
		default:
			dropped.Inc()
		}
	}
}

// finish is the shutdown tail of the single and coordinator roles: final
// checkpoint, finalize a crisis still open so the stats count it, summary.
func (d *daemon) finish() {
	if d.cfg.ckptDir != "" {
		d.checkpoint()
	}
	d.mu.Lock()
	flushed := d.mon.Flush()
	st := d.mon.Stats()
	d.mu.Unlock()
	if flushed {
		log.Print("finalized crisis still open at stream end")
	}
	log.Printf("done: %d epochs, %d crises stored (%d labeled)",
		st.EpochsSeen, st.CrisesStored, st.CrisesLabeled)
}

// health is the /healthz payload.
func (d *daemon) health() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return struct {
		Status        string        `json:"status"`
		UptimeSeconds float64       `json:"uptime_seconds"`
		Monitor       monitor.Stats `json:"monitor"`
	}{"ok", time.Since(d.start).Seconds(), d.mon.Stats()}
}

// crises is the /crises payload. Both slices are always non-nil so the JSON
// renders [] rather than null before any crisis has been seen.
func (d *daemon) crises() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	advice := append([]monitor.Advice{}, d.advice...)
	return struct {
		Crises []monitor.CrisisRecord `json:"crises"`
		Advice []monitor.Advice       `json:"recent_advice"`
	}{d.mon.Crises(), advice}
}

// endpoints wires the daemon's snapshot functions into the HTTP handler.
// The /traces and /accuracy payloads always render JSON arrays/objects, [],
// never null, matching the /crises guarantee.
func (d *daemon) endpoints() telemetry.Endpoints {
	return telemetry.Endpoints{
		Health:   d.health,
		Crises:   d.crises,
		Traces:   func() any { return d.tracer.Snapshots() },
		Accuracy: func() any { return d.score.State() },
		Explain:  d.explain,
		History:  d.hist,
		Alerts:   func() any { return d.engine.Snapshot() },
		Incidents: func() any {
			return struct {
				Incidents []incident.Summary `json:"incidents"`
			}{d.incidents.Index()}
		},
		Incident: func(id string) (any, bool) {
			r, ok := d.incidents.Get(id)
			return r, ok
		},
	}
}

// explain is the /explain/{crisisID} payload: every identification audit
// record of one crisis, ident-epoch order.
func (d *daemon) explain(id string) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	expls, ok := d.mon.Explanations(id)
	if !ok {
		return nil, false
	}
	return struct {
		CrisisID     string               `json:"crisis_id"`
		Explanations []*ident.Explanation `json:"explanations"`
	}{id, expls}, true
}
