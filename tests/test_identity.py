"""Same-seed training results, pinned: checkpoint bytes and step losses.

Two gates tell a change that alters what is trained from one that only
reorders floating-point sums:

- The d=8 CLI recipe (`outfitrec gen --seed 3 --train-outfits 60
  --valid-outfits 10 --fc-questions 200 --fitb-questions 100`, then
  `train --epochs 1 --runs 1` per fuser with `RECIPE_CONFIG`) must write
  byte-identical `run0.ckpt` files and the same validation AUCs. The
  checkpoint stores float32, so summation-order drift in the f64 training
  (about 1e-16 relative) does not reach its bytes.
- One d=32 epoch per fuser on `SyntheticSpec()` must reproduce the f64
  per-step losses: to `TIGHT_RTOL` over the first `TIGHT_STEPS` steps,
  where reordered sums have had no time to compound, and to `LOOSE_RTOL`
  over all 47 steps. Reordered sums make co-attention's loss drift apart
  by roughly a factor of two every two steps (up to about 1e-7 relative
  by the last step); the other fusers stay within about 1e-15. Scaling
  one loss weight by 1.001 moves the first step by about 1e-7 relative.

A change that moves a pinned value must say why, with its step-loss
deltas, and re-pin it.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from outfitrec.cli import main
from outfitrec.data import SyntheticSpec, generate_synthetic
from outfitrec.model import FUSION_KINDS
from outfitrec.training import TrainConfig, train

RECIPE_GEN_ARGS = ["--seed", "3", "--train-outfits", "60",
                   "--valid-outfits", "10", "--fc-questions", "200",
                   "--fitb-questions", "100"]
RECIPE_CONFIG = {"d_g": 8, "d_c": 8, "h": 8, "batch_size": 32,
                 "learning_rate": 0.001}

CHECKPOINT_SHA256 = {
    "baseline": "1cc8b94a56523c033d97efc1232398caa9b254192443e316af92b59d83d3ffe1",
    "dot_product": "cf06edd44852e8af903b9bbaa9427f852e0e68f842f4208c81e16110f371121b",
    "stacked": "19b6e84492e825a2176d28179e46dcf934a45cb3e7948a7021a78c0b7665af53",
    "coattention": "326e7393abffbac4720aa8c2cf4ee9e9266f6c4545f17ed194736a80dacf6a30",
}
VALID_AUC = {
    "baseline": [0.76],
    "dot_product": [0.73],
    "stacked": [0.95],
    "coattention": [0.65],
}

EPOCH_CONFIG = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=128,
                           d_g=32, d_c=32, h=32, runs=1, seed=0)
TIGHT_STEPS, TIGHT_RTOL, LOOSE_RTOL = 3, 1e-13, 1e-6
STEP_LOSSES = {
    "baseline": [
        0.1531766642224214, 0.18612475955577495, 0.15134850881799125,
        0.1983831492664753, 0.15786677480997624, 0.12948602921296742,
        0.18869418972241436, 0.14033206718604335, 0.11405961033333949,
        0.1591251391613064, 0.15827583465483738, 0.13122787560125934,
        0.15720400411062488, 0.12617201032463074, 0.13393047665546778,
        0.14378880892013798, 0.17110843830590644, 0.14078087347690427,
        0.1484943248113217, 0.16063720544399213, 0.13948685533887584,
        0.16584815634968444, 0.1774946797877389, 0.15776509629600097,
        0.12764530332137816, 0.1638518302645775, 0.13330647315845492,
        0.15570037051622918, 0.10918881395977217, 0.12213166016750396,
        0.13470027440307422, 0.12349843005004368, 0.14712066514928718,
        0.11855761585364304, 0.1664368216671253, 0.14408253755936226,
        0.12688614041320556, 0.18249089528824594, 0.09798259499673018,
        0.11311290408346453, 0.12392636862188222, 0.15650242752091434,
        0.12745649119858488, 0.1479094030380045, 0.14902941695524638,
        0.10013613071699684, 0.14196871377356735],
    "dot_product": [
        0.14478236803307423, 0.1682915028786829, 0.13932255317336584,
        0.15657486552546854, 0.12256563166632237, 0.12808442566005127,
        0.1355523012623295, 0.12087380407939195, 0.09311907574467833,
        0.13440404156472266, 0.11418556696597205, 0.09266274585004523,
        0.12260988542247475, 0.09967737101350556, 0.09173252229773188,
        0.0815565676947791, 0.08553017722410422, 0.1111884771158357,
        0.09415642285171692, 0.06867269140983744, 0.11987767492918532,
        0.09874495335881775, 0.12457680108431979, 0.10521307334118664,
        0.10150590261085138, 0.11429335986639794, 0.07334157427221642,
        0.10066027873811051, 0.09205645267452008, 0.07908078128845056,
        0.06454210832871836, 0.05815954552434325, 0.0794271191133711,
        0.06557936230055121, 0.08145624406384977, 0.08727015243194358,
        0.0777938872570392, 0.079013457024575, 0.06637615527415412,
        0.09697005957907323, 0.07125608447661504, 0.06454036333136522,
        0.0928569771671422, 0.0745197606907681, 0.09816129077615453,
        0.057054767370769414, 0.06002996271088096],
    "stacked": [
        0.1094420829645054, 0.13079774881637335, 0.10385470476171756,
        0.11810796766488668, 0.08794719961795935, 0.10226247474725084,
        0.11885447173861619, 0.10125596474896906, 0.08827401534787181,
        0.12633793404943716, 0.08753802891747159, 0.09708419779082171,
        0.09519409672128509, 0.07103061268400547, 0.08113949342298993,
        0.08340199242482933, 0.12387526809447931, 0.10425528499059485,
        0.0683902800886261, 0.08175662898308526, 0.0914134170675612,
        0.09526599110313966, 0.09302632212521521, 0.10050437898335529,
        0.0855284203139615, 0.0808019389835911, 0.053206721820471994,
        0.10112230117042237, 0.053782680093016594, 0.06651842330248567,
        0.07158378058288176, 0.050511393775117666, 0.07985973519935359,
        0.048523802012956786, 0.0945960294716455, 0.07841171333791519,
        0.05979513753236179, 0.08162631149428977, 0.055341854105458346,
        0.07089436440282146, 0.0704175696704503, 0.058036609050524685,
        0.07108851882004906, 0.074441564270665, 0.07752734420996112,
        0.04769000444646172, 0.06727998882605934],
    "coattention": [
        0.1900963316878234, 0.1719403179909603, 0.17038137531738987,
        0.17951015684187202, 0.17215050955781372, 0.16206346629252905,
        0.18623047880091304, 0.1852851193523126, 0.16190201356285724,
        0.1838382158024669, 0.14985620854294382, 0.13626157533649666,
        0.12983953472024348, 0.15676025326834947, 0.11351200917159752,
        0.10282861470899408, 0.11859958862363201, 0.13923322333812632,
        0.10282828509861182, 0.1064772058791759, 0.08777994269117148,
        0.13332430936789907, 0.1222536141894085, 0.08862113056453787,
        0.0839209053119866, 0.12300947571498118, 0.09824564546142503,
        0.10885463318331999, 0.05699128250259281, 0.10128306695026008,
        0.08280553169312324, 0.060637480563404636, 0.11807504262548298,
        0.06314834598591168, 0.09256581864387114, 0.08575627706542978,
        0.07318102915139088, 0.09186356394908261, 0.05047937614709034,
        0.06856327399576471, 0.08674570096460525, 0.06668714438275124,
        0.07475591113896486, 0.06633752781843574, 0.0647948402050154,
        0.060105134889854084, 0.08139207921620907],
}


@pytest.fixture(scope="module")
def recipe_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("identity")
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--out", str(tmp / "data"),
                                  *RECIPE_GEN_ARGS])
    assert result.exit_code == 0, result.output
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(RECIPE_CONFIG))
    for fusion in FUSION_KINDS:
        result = runner.invoke(main, [
            "train", "--data", str(tmp / "data" / "manifest.json"),
            "--config", str(cfg), "--out-dir", str(tmp / fusion),
            "--fusion", fusion, "--epochs", "1", "--runs", "1"])
        assert result.exit_code == 0, result.output
    return tmp


@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_recipe_checkpoint_is_byte_identical(recipe_runs, fusion):
    blob = (recipe_runs / fusion / "run0.ckpt").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == CHECKPOINT_SHA256[fusion]
    lines = (recipe_runs / fusion / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["valid_auc"] for line in lines] \
        == VALID_AUC[fusion]


@pytest.fixture(scope="module")
def epoch_dataset():
    return generate_synthetic(SyntheticSpec(), seed=0)


@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_d32_epoch_step_losses(epoch_dataset, fusion):
    _, history = train(epoch_dataset,
                       dataclasses.replace(EPOCH_CONFIG, fusion=fusion))
    got = np.array(history[0].step_losses)
    want = np.array(STEP_LOSSES[fusion])
    assert got.shape == want.shape
    np.testing.assert_allclose(got[:TIGHT_STEPS], want[:TIGHT_STEPS],
                               rtol=TIGHT_RTOL, atol=0)
    np.testing.assert_allclose(got, want, rtol=LOOSE_RTOL, atol=0)
