// Package goroleak is the rrlint fixture for the goroleak check: an
// unsupervised goroutine literal and an unsupervised named launch
// (findings), a goroutine ranging over a ticker it made itself
// (finding), a clean WaitGroup-supervised worker, a clean done-channel
// loop, a clean context launch, and suppressed process-lifetime loops.
package goroleak

import (
	"context"
	"sync"
	"time"
)

type Worker struct {
	wg   sync.WaitGroup
	done chan struct{}
}

// leak launches a loop nothing can stop: finding at the go statement.
func (w *Worker) leak() {
	go func() { // want: no visible termination path
		for {
			step()
		}
	}()
}

// leakNamed launches a named spinner with the same problem.
func (w *Worker) leakNamed() {
	go spin() // want: no visible termination path
}

func spin() {
	for {
		step()
	}
}

// supervised joins the goroutine through the WaitGroup: clean.
func (w *Worker) supervised() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		step()
	}()
	w.wg.Wait()
}

// doneChannel polls a stop channel visible at the launch site: clean.
func (w *Worker) doneChannel() {
	go func() {
		for {
			select {
			case <-w.done:
				return
			default:
			}
			step()
		}
	}()
}

// announce closes a launcher-visible channel when finished (the other
// half of the done-channel pattern): clean.
func (w *Worker) announce() chan struct{} {
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		step()
	}()
	return finished
}

// withContext hands the goroutine a context: cancellation visibly
// reaches it. Clean.
func (w *Worker) withContext(ctx context.Context) {
	go run(ctx)
}

func run(ctx context.Context) {
	<-ctx.Done()
}

// ticker ranges over a ticker the goroutine made itself: the channel
// never closes and nothing outside the goroutine can stop the loop.
func (w *Worker) ticker() {
	go func() { // want: no visible termination path
		t := time.NewTicker(time.Second)
		for range t.C {
			step()
		}
	}()
}

// background holds acknowledged process-lifetime loops, suppressed at
// the launch site. A trailing allow covers only its own line, so the
// launch right under it is still reported; an allow that starts its
// line covers the line below.
func (w *Worker) background() {
	go spin() //rrlint:allow goroleak -- fixture: process-lifetime loop by design
	go spin() // want: the trailing allow above does not reach this line
	//rrlint:allow goroleak -- fixture: comment-above style
	go spin()
}

func step() {}
