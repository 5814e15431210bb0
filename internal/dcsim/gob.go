package dcsim

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dcfp/internal/crisis"
	"dcfp/internal/metrics"
	"dcfp/internal/sla"
)

// gobConfig mirrors Config's persisted fields (Workers and Telemetry are
// runtime-only).
type gobConfig struct {
	Machines        int
	Seed            int64
	BackgroundDays  int
	UnlabeledDays   int
	LabeledDays     int
	UnlabeledCrises int
	FSMachines      int
	FSPad           int
	WorkloadBase    float64
	WorkloadDiurnal float64
	WorkloadWeekly  float64
	WorkloadNoise   float64
	WorkloadAR      float64
}

// gobTrace mirrors Trace for encoding.
type gobTrace struct {
	Config         gobConfig
	Catalog        *metrics.Catalog
	SLA            sla.Config
	Track          *metrics.QuantileTrack
	Status         []sla.EpochStatus
	InCrisis       []bool
	Episodes       []sla.Episode
	Instances      []crisis.Instance
	UnlabeledStart metrics.Epoch
	LabeledStart   metrics.Epoch
	FSEpochs       []metrics.Epoch
	FSData         []*FSEpoch
}

// GobEncode implements gob.GobEncoder so traces can be saved to disk (see
// internal/tracefile) instead of re-simulated.
func (t *Trace) GobEncode() ([]byte, error) {
	g := gobTrace{
		Config: gobConfig{
			Machines:        t.Config.Machines,
			Seed:            t.Config.Seed,
			BackgroundDays:  t.Config.BackgroundDays,
			UnlabeledDays:   t.Config.UnlabeledDays,
			LabeledDays:     t.Config.LabeledDays,
			UnlabeledCrises: t.Config.UnlabeledCrises,
			FSMachines:      t.Config.FSMachines,
			FSPad:           t.Config.FSPad,
			WorkloadBase:    t.Config.Workload.Base,
			WorkloadDiurnal: t.Config.Workload.DiurnalAmplitude,
			WorkloadWeekly:  t.Config.Workload.WeeklyAmplitude,
			WorkloadNoise:   t.Config.Workload.NoiseStd,
			WorkloadAR:      t.Config.Workload.AR,
		},
		Catalog:        t.Catalog,
		SLA:            t.SLA,
		Track:          t.Track,
		Status:         t.Status,
		InCrisis:       t.InCrisis,
		Episodes:       t.Episodes,
		Instances:      t.Instances,
		UnlabeledStart: t.UnlabeledStart,
		LabeledStart:   t.LabeledStart,
	}
	for e, fse := range t.fs {
		g.FSEpochs = append(g.FSEpochs, e)
		g.FSData = append(g.FSData, fse)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *Trace) GobDecode(b []byte) error {
	var g gobTrace
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	if g.Catalog == nil || g.Track == nil {
		return fmt.Errorf("dcsim: decoded trace missing catalog or track")
	}
	if len(g.FSEpochs) != len(g.FSData) {
		return fmt.Errorf("dcsim: decoded trace has %d FS epochs but %d FS payloads",
			len(g.FSEpochs), len(g.FSData))
	}
	t.Config = Config{
		Machines:        g.Config.Machines,
		Seed:            g.Config.Seed,
		BackgroundDays:  g.Config.BackgroundDays,
		UnlabeledDays:   g.Config.UnlabeledDays,
		LabeledDays:     g.Config.LabeledDays,
		UnlabeledCrises: g.Config.UnlabeledCrises,
		FSMachines:      g.Config.FSMachines,
		FSPad:           g.Config.FSPad,
	}
	t.Config.Workload.Base = g.Config.WorkloadBase
	t.Config.Workload.DiurnalAmplitude = g.Config.WorkloadDiurnal
	t.Config.Workload.WeeklyAmplitude = g.Config.WorkloadWeekly
	t.Config.Workload.NoiseStd = g.Config.WorkloadNoise
	t.Config.Workload.AR = g.Config.WorkloadAR
	t.Catalog = g.Catalog
	t.SLA = g.SLA
	t.Track = g.Track
	t.Status = g.Status
	t.InCrisis = g.InCrisis
	t.Episodes = g.Episodes
	t.Instances = g.Instances
	t.UnlabeledStart = g.UnlabeledStart
	t.LabeledStart = g.LabeledStart
	t.fs = make(map[metrics.Epoch]*FSEpoch, len(g.FSEpochs))
	for i, e := range g.FSEpochs {
		t.fs[e] = g.FSData[i]
	}
	return nil
}
