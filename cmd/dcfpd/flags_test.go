package main

import (
	"flag"
	"strings"
	"testing"
)

// defaultConfig is the config an argument-less command line yields.
func defaultConfig() *config {
	var c config
	bindFlags(flag.NewFlagSet("dcfpd", flag.ContinueOnError), &c)
	return &c
}

// flagSurface is every flag and its default, in VisitAll (lexical) order.
// It changes only when an issue asks for an option by name: a change whose
// goal is to simplify adds none.
const flagSurface = `addr=:9137
advice-out=
alert-rules=
alert-webhook=
alpha=0.05
audit-out=
checkpoint-dir=
checkpoint-every=96
coordinator-addr=
fault-blank=0
fault-corrupt=0
fault-delay=0
fault-drop-epoch=0
fault-dropout=0
fault-duplicate=0
fault-seed=1
fault-truncate=0
fleet-dead-after=48
fleet-flush-after=3s
fleet-replay=128
fleet-ship-timeout=45s
fleet-window=8
forecast=true
history-raw=512
interval=100ms
log=text
machines=100
max-epochs=0
mean-gap-days=2
min-coverage=0.5
reorder-window=4
resolve-after=96
role=single
scenario=
seed=42
shard-index=0
shards=2
threshold-days=2
trace-capacity=256
workers=0
`

func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("dcfpd", flag.ContinueOnError)
	bindFlags(fs, new(config))
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { got.WriteString(f.Name + "=" + f.DefValue + "\n") })
	if got.String() != flagSurface {
		t.Errorf("flag surface changed:\n got:\n%s\nwant:\n%s", got.String(), flagSurface)
	}
}
