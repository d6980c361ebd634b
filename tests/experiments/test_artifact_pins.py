"""sha256 pins of every rendered artifact of a small study.

One 2,000-user study (seed 3, whose crawl seed user shows its circle
lists, so the crawl reaches its 1,560-page cap) runs on each generation
engine, and the text of all 20 registered artifacts is hashed.  The
path-mile cap is set below the located-edge count so Figure 9's
subsampling runs.  A change to any analysis, study stage or renderer
must keep these digests unchanged unless it means to change an
artifact.
"""

import hashlib

import pytest

from repro.core import MeasurementStudy, StudyConfig
from repro.experiments import run_experiments

PINS = {
    "reference": {
        "table1": "81fe2a8789a816a84b6df77721da23122d891ff3006325da529c44e001c21715",
        "table2": "16d8445398f160af8fbaffc647bb7fc35d5aa8170a7a186df5d10b71378a032b",
        "table3": "8a8d0f8148a1d284164a3d14f5449c013686e045294d72f6aee9b867a3728ef4",
        "table4": "fbcd777d716d63fa9538341626fee124be11c076f7d3ee840ce078b81e201356",
        "table5": "98e8f9749b4feeb5b18082c60823f1d565c1d2c248fbcd624d273782e76c3359",
        "fig2": "abeee3d65fd8af78b59be1c5711ceee4aaa22bc876edc3ba0d3e148c8032c883",
        "fig3": "4baa7baf501db9dbd6ced81e851237517ff3b81974fab938a228c5a2c2ca1654",
        "fig4a": "8dafb7399e3765ac8e2ed249f355cb8a1152bddb26e4704e00de6274338a9648",
        "fig4b": "3cf970989f3770e807ddf35a4e80b8f94809c0de470cec6610b7b6a1e83f6a9a",
        "fig4c": "327c44a2c7a37db1754e3ba45f1ab51a27b14557a1621822462a7f64a95d3b2a",
        "fig5": "fcaac75653b090694638a1451ff396ed7559b969ca4dc21028f7db52dde47aef",
        "fig6": "1c9e37a9707c41bdb2f12606143e93c838d5d6937e2361e5eabd5b92971e354e",
        "fig7": "aa2d8fe02430a02e09035ae5698f782f848d9b17e501edd353f826741456800b",
        "fig8": "e18cd8fa42ba617b4bc2e24bd37628cdd0c43396f3b12da51b4deca39b6b18da",
        "fig9": "9c81cf0fa9cfd470f37f344fe3dd21aa2dd097104727d924c1444c7e3fa29978",
        "fig10": "31998cb9b486d9b71e43e133a0a07329641850dc98e2e10942e51923611f2681",
        "methodology": "01431080fc6acac2d96b79654330572151a86d8c6b46d7c66bb47c7fb16e240b",
        "ext_growth": "609cd2f2206dc95e89fd30211ba69a2e29b3db5bc7accf272dfb6f92ce324561",
        "ext_diffusion": "87c9e75bb2e153d2d5a38064e2099bc87932e9a60aafcae02e4c2cd8d5f369ff",
        "ext_implications": "ebb426d31b6737bb8d22447a10d24f2bf458103b1cf0e8f75814b49acc7f08e9",
    },
    "fast": {
        "table1": "cb8d46e84ef1745a7839e303e0a8f7ef46b31a515fd8f580eed9d3554ee4eb84",
        "table2": "53a39ad462b52176d6e32f05b7351c7095c3c7521815a5c839077316d9e58b27",
        "table3": "01e53a6fc86b15aaf0012f44546ed570bab393b4f8496c25cdc95329da26062a",
        "table4": "3f2c9a258b7f2a3e17d4e1da921fa8bc079915c27f6ef2085068349947df451d",
        "table5": "a993191a24f19419d81138d38fd133884a4bd6bd8b3fe0f55b7e56de5f71d546",
        "fig2": "16c6d33bf673e1fa33c80299875c6283da908fbd1b008e4fe9dedbeaa4f9698d",
        "fig3": "c4638a48063cd4601d348c61eb43aba89de2078579b3b87945ffd5c359bfb86c",
        "fig4a": "e92c2b6b879d8caf6496b265964b4d5992383bb9771ec7292c66ed03def54626",
        "fig4b": "0275289603fa6bfd0f272fe43e8b356af87047d656c322629985b61d9ee536d0",
        "fig4c": "549f53fa8221501d6030bbbed637c5b237ec9345c983059e86da7253a5c362a3",
        "fig5": "aa72d4ff82c7091cd54e48fbae5f6bc6fb32c9eb91e2d68a9a92294238f031be",
        "fig6": "d16975f9157ba40bb6f420da72229ebd4d5a24f919640828cb7b914e31865205",
        "fig7": "1969d1e6beb2314fce6158ee10406cacdcb92a84e4d61cc226dac5b466687202",
        "fig8": "9ba35195954e2bdf50f0de0e87b1aab24ca7a10ce638e419a052d256e381ac2c",
        "fig9": "68cba0a877e315c0e3655b9ce637d0484e2fc6b669ca0f819b25698e5e641078",
        "fig10": "aad687f18146dcd90bbe988e858bb2f85d67958c2b9e4e79d73677fd05e0ad32",
        "methodology": "47aba4cbfd74edce76d9a03264b0607fbfa6e24d1c6b8011d444995620f7b9cd",
        "ext_growth": "f5c6e2a8dd244f6148e1e9188aaa404a1b0026473af479bcee81e6448b93cfec",
        "ext_diffusion": "e7fd59623b57bc898d2ee6a1e2bb998e237e1aeaf12d8ad578e2622d4c6b05bf",
        "ext_implications": "c8494781a96e5bacd4cc406bb19515cef909640d5e7b0465be8f0cfd62fa9ffb",
    },
}


def _study_config(engine: str) -> StudyConfig:
    return StudyConfig(
        n_users=2_000,
        seed=3,
        engine=engine,
        path_sample_start=100,
        path_sample_max=300,
        path_mile_pairs=1_000,
    )


@pytest.mark.parametrize("engine", sorted(PINS))
def test_artifact_digests(engine):
    results = MeasurementStudy(_study_config(engine)).run()
    artifacts = run_experiments(results)
    digests = {
        artifact_id: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for artifact_id, text in artifacts.items()
    }
    assert digests == PINS[engine]
