package experiments

import (
	"fmt"

	"ssdfail/internal/eval"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/ml/knn"
	"ssdfail/internal/ml/logreg"
	"ssdfail/internal/ml/neuralnet"
	"ssdfail/internal/ml/svm"
	"ssdfail/internal/ml/tree"
	"ssdfail/internal/trace"
)

// This file wires the §5 prediction experiments onto the expgrid engine:
// the grid is decomposed into (scope, classifier, lookahead, fold) tasks
// whose seeds derive from stable task keys, so every table below is
// bit-identical at any worker count (see DESIGN.md §11).

// classifierSpecs returns the six Table 6 classifiers as engine specs.
// Each constructor receives the task seed; the forest caps its internal
// workers at 1 because parallelism comes from task-level scheduling.
func (ctx *Context) classifierSpecs() []expgrid.ClassifierSpec {
	forestTrees := ctx.Cfg.ForestTrees
	return []expgrid.ClassifierSpec{
		{Label: "Logistic Reg.", New: func(seed uint64) ml.Classifier {
			cfg := logreg.DefaultConfig()
			cfg.Seed = seed
			return logreg.New(cfg)
		}},
		{Label: "k-NN", New: func(uint64) ml.Classifier {
			return knn.New(knn.DefaultConfig())
		}},
		{Label: "SVM", New: func(seed uint64) ml.Classifier {
			cfg := svm.DefaultConfig()
			cfg.Seed = seed
			return svm.New(cfg)
		}},
		{Label: "Neural Network", New: func(seed uint64) ml.Classifier {
			cfg := neuralnet.DefaultConfig()
			cfg.Seed = seed
			return neuralnet.New(cfg)
		}},
		{Label: "Decision Tree", New: func(seed uint64) ml.Classifier {
			cfg := tree.DefaultConfig()
			cfg.Seed = seed
			return tree.New(cfg)
		}},
		{Label: "Random Forest", New: func(seed uint64) ml.Classifier {
			cfg := forest.DefaultConfig()
			cfg.Trees = forestTrees
			cfg.Seed = seed
			cfg.Workers = 1
			return forest.New(cfg)
		}},
	}
}

// forestSpec returns a single-classifier spec list for forest-only grids.
func (ctx *Context) forestSpec() []expgrid.ClassifierSpec {
	specs := ctx.classifierSpecs()
	return specs[len(specs)-1:]
}

// baseSpec fills the spec fields shared by every grid in this package.
func (ctx *Context) baseSpec(scopes []expgrid.Scope, lookaheads []int) expgrid.Spec {
	return expgrid.Spec{
		Scopes:            scopes,
		Lookaheads:        lookaheads,
		Folds:             ctx.Cfg.CVFolds,
		Seed:              ctx.Cfg.Seed,
		DownsampleRatio:   1,
		TestNegSampleProb: ctx.Cfg.TestNegSampleProb,
		AgeMax:            -1,
		Workers:           ctx.Cfg.Workers,
	}
}

// allScope wraps the full fleet as the engine's "all" scope.
func (ctx *Context) allScope() []expgrid.Scope {
	return []expgrid.Scope{{Name: "all", Fleet: ctx.Fleet, An: ctx.An}}
}

// GridSpec builds the full Table 6 grid specification: six classifiers
// over the given lookaheads on the whole fleet. Exported for the grid
// benchmark and cmd/ssdpredict.
func (ctx *Context) GridSpec(lookaheads ...int) expgrid.Spec {
	spec := ctx.baseSpec(ctx.allScope(), lookaheads)
	spec.Classifiers = ctx.classifierSpecs()
	return spec
}

// ModelGridSpec builds the Table 7 diagonal grid: a random-forest CV per
// drive-model scope at the given lookaheads.
func (ctx *Context) ModelGridSpec(folds int, lookaheads ...int) expgrid.Spec {
	scopes := make([]expgrid.Scope, 0, trace.NumModels)
	for _, m := range trace.Models {
		scopes = append(scopes, expgrid.Scope{
			Name:  m.String(),
			Fleet: ctx.ModelFleet[m],
			An:    ctx.ModelAn[m],
		})
	}
	spec := ctx.baseSpec(scopes, lookaheads)
	spec.Folds = folds
	spec.Classifiers = ctx.forestSpec()
	return spec
}

// forestGrid builds the forest-only grid on the whole fleet that every
// ablation varies: with no field changed, its cells are Table 6's
// "Random Forest" cells bit for bit (same task keys, same seeds).
func (ctx *Context) forestGrid(lookaheads ...int) expgrid.Spec {
	spec := ctx.baseSpec(ctx.allScope(), lookaheads)
	spec.Classifiers = ctx.forestSpec()
	return spec
}

// runGrid executes a grid and surfaces the first task error.
func runGrid(spec expgrid.Spec) (*expgrid.Result, error) {
	res, err := expgrid.Run(spec)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cellSummary folds one cell's per-fold AUCs into mean ± std.
func cellSummary(res *expgrid.Result, scope, classifier string, lookahead int) (eval.Result, error) {
	aucs, ok := res.Cell(scope, classifier, lookahead)
	if !ok {
		return eval.Result{}, fmt.Errorf("experiments: missing cell (%s, %s, N=%d)", scope, classifier, lookahead)
	}
	return eval.Summarize(aucs), nil
}

// forestCV runs a forestGrid variant and summarizes its cell at one
// lookahead.
func forestCV(spec expgrid.Spec, lookahead int) (eval.Result, error) {
	res, err := runGrid(spec)
	if err != nil {
		return eval.Result{}, err
	}
	return cellSummary(res, "all", "Random Forest", lookahead)
}

// RunTable6Grid executes the full Table 6 grid through the engine and
// returns the raw result (per-task AUCs plus engine statistics).
func RunTable6Grid(ctx *Context) (*expgrid.Result, error) {
	return runGrid(ctx.GridSpec(PaperTable6Lookaheads[:]...))
}
