package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"iotaxo/internal/dataset"
	"iotaxo/internal/serve"
	"iotaxo/internal/system"
)

// The fixture is the `ioserve -bootstrap` default bundle for one system:
// every run trains the same model, and -seed drives only the request stream.
const (
	fixtureSystem = "theta"
	fixtureJobs   = 4000
	fixtureSeed   = 1
	// counterColumn is the integer-valued feature a per-row counter is added
	// to so that rows are unique yet stay inside the training range
	// (500 .. 2e9 on the fixture).
	counterColumn = "posix_max_access_size"
)

func fixtureFrame() (*dataset.Frame, error) {
	cfg := system.ThetaLike(fixtureJobs)
	cfg.Seed = fixtureSeed
	machine, err := system.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", fixtureSystem, err)
	}
	return machine.Frame()
}

// trainFixture trains the bundle from frame and saves it in the registry
// layout under dir.
func trainFixture(frame *dataset.Frame, dir string) error {
	cfg := serve.DefaultBootstrap()
	cfg.Versions = 1
	cfg.Seed = fixtureSeed
	mv, err := serve.BuildVersion(fixtureSystem, 1, frame, cfg)
	if err != nil {
		return err
	}
	return serve.SaveVersion(dir, mv)
}

// pool holds the fixture's feature rows and, for each, its JSON rendering
// split around the counter feature, so a request body is assembled by
// concatenation: pre[i] + integer + post[i].
type pool struct {
	rows      [][]float64
	pre, post [][]byte
	col       int
}

func newPool(frame *dataset.Frame) (*pool, error) {
	col := frame.ColumnIndex(counterColumn)
	if col < 0 {
		return nil, fmt.Errorf("fixture has no %s column", counterColumn)
	}
	p := &pool{rows: frame.Rows(), col: col}
	for i, row := range p.rows {
		if v := row[col]; v != float64(int64(v)) || v < 0 {
			return nil, fmt.Errorf("row %d: %s = %v is not a non-negative integer", i, counterColumn, v)
		}
		pre := []byte{'['}
		for _, v := range row[:col] {
			pre = append(appendJSONFloat(pre, v), ',')
		}
		var post []byte
		for _, v := range row[col+1:] {
			post = appendJSONFloat(append(post, ','), v)
		}
		p.pre = append(p.pre, pre)
		p.post = append(p.post, append(post, ']'))
	}
	return p, nil
}

// appendJSONFloat renders v exactly as encoding/json does.
func appendJSONFloat(dst []byte, v float64) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixture features are finite
	}
	return append(dst, b...)
}

// rowRef names one request row: pool row idx with ctr added to its counter
// feature.
type rowRef struct {
	idx int32
	ctr int64
}

func (p *pool) appendRow(dst []byte, r rowRef) []byte {
	dst = append(dst, p.pre[r.idx]...)
	dst = strconv.AppendInt(dst, int64(p.rows[r.idx][p.col])+r.ctr, 10)
	return append(dst, p.post[r.idx]...)
}

// fill writes the row r names into dst, which has the pool's width.
func (p *pool) fill(dst []float64, r rowRef) {
	copy(dst, p.rows[r.idx])
	dst[p.col] += float64(r.ctr)
}
