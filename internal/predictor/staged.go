package predictor

// Staged predict/train pipeline.
//
// The composite hot path is decomposed into three explicit stages —
// stage 1 computes every bank index and tag from the history+PC hash,
// stage 2 issues every table load, stage 3 combines the votes into the
// final prediction. Predict is their composition and Train is
// TrainTables followed by SpecPush; the speculative pipeline model
// (internal/sim/spec.go) drives the two train halves separately, and
// the per-layer benchmark probes time each stage on its own.
//
// The decomposition is bit-identical to the monolithic path (kept
// verbatim in reference.go and pinned by TestStagedMatchesReference):
// the stages only reorder pure reads, and no predictor state mutates
// between the stages of one branch. Train reuses the indices recorded
// at stage 1, which is exact because every driver calls Predict
// immediately before TrainTables, and within TrainTables the table
// training runs before any history mutation (outer-history,
// local-history and IMLI pushes all come later).

// PredictStage1 is predict stage 1: compute every bank index and tag
// for pc across the base predictor and corrector components.
func (c *Composite) PredictStage1(pc uint64) {
	c.stagePC = pc
	if c.tage != nil {
		pcMix := c.tage.IndexStage(pc)
		c.gsc.StageIndex(pc, pcMix)
	} else {
		c.gehl.StageIndex(pc)
	}
}

// PredictStage2 is predict stage 2: issue every table load at the
// stage-1 indices. The loop and wormhole side predictors probe here
// too — their lookups are loads like any other.
func (c *Composite) PredictStage2() {
	if c.tage != nil {
		c.tage.LoadStage()
		c.gsc.StageLoad()
	} else {
		c.gehl.StageLoad()
	}
	if c.lp != nil {
		c.stageLoop, c.stageLoopOK = c.lp.Predict(c.stagePC)
	}
	if c.wh != nil {
		c.stageWH, c.stageWHUse = c.wh.Predict(c.stagePC)
	}
}

// PredictStage3 is predict stage 3: combine the loaded votes into the
// final direction, applying the loop and wormhole overrides exactly as
// the monolithic path does.
func (c *Composite) PredictStage3() bool {
	var pred bool
	if c.tage != nil {
		c.lastTage = c.tage.CombineStage()
		pred = c.gsc.StageCombine(c.lastTage)
	} else {
		pred = c.gehl.StageCombine()
	}
	c.lastLoopUsed = false
	if c.lp != nil && c.stageLoopOK && c.opts.LoopUse {
		pred = c.stageLoop
		c.lastLoopUsed = true
	}
	if c.wh != nil && c.stageWHUse {
		pred = c.stageWH
	}
	c.lastFinal = pred
	return pred
}
