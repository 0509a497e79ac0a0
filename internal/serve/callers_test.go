package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/system"
)

// BenchmarkPredictCallers is the traffic the models serve: closed-loop
// callers, each asking about one job and waiting for the answer before it
// asks again. The service runs on production defaults (Options{}: two
// evaluation slots) with the cache off, so every row is evaluated, over the
// `ioserve -bootstrap` Theta bundle (DefaultBootstrap: 80 trees of depth 7,
// three ensemble members). ns/row is wall time per served row across all
// callers; rows/eval is how many rows one evaluation carried.
//
//	go test -run '^$' -bench BenchmarkPredictCallers -benchtime 20000x ./internal/serve
func BenchmarkPredictCallers(b *testing.B) {
	cfg := DefaultBootstrap()
	sysCfg := system.ThetaLike(cfg.Jobs)
	sysCfg.Seed = cfg.Seed
	machine, err := system.Generate(sysCfg)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := machine.Frame()
	if err != nil {
		b.Fatal(err)
	}
	mv, err := BuildVersion("theta", 1, frame, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(mv); err != nil {
		b.Fatal(err)
	}
	rows := frame.Rows()
	for _, callers := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			svc := NewService(reg, Options{})
			defer svc.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						row := [][]float64{rows[i%int64(len(rows))]}
						if _, _, err := svc.Predict(context.Background(), "theta", 0, row); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/row")
			b.ReportMetric(svc.Metrics().MeanBatchSize(), "rows/eval")
		})
	}
}
