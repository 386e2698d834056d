"""Expected paper-default results the ``paper-cli`` workload checks every op against.

The values are the golden numbers pinned by ``tests/test_golden_regression.py``
(generator speedup and energy reduction over EYERISS on
``ArchitectureConfig.paper_default()``).  They are repeated here so that the
benchmark needs nothing outside its own directory at run time;
``selftest.py`` checks that the two copies agree.
"""

#: model -> (generator speedup, generator energy reduction) of ``ganax``.
GOLDEN = {
    "3D-GAN": (8.294872609932957, 4.6774771943603755),
    "ArtGAN": (3.939804766358853, 2.430527162956952),
    "DCGAN": (4.55573990462587, 2.4957907010860487),
    "DiscoGAN": (3.160956537367584, 1.975331062100266),
    "GP-GAN": (3.940532910783142, 2.3379412950065754),
    "MAGAN": (2.5665611960038337, 2.018641698631775),
}

#: accelerator -> model -> (generator speedup, energy reduction) over EYERISS.
VARIANT_GOLDEN = {
    "ganax-noskip": {
        "3D-GAN": (0.9999998773050476, 0.9999999588418732),
        "ArtGAN": (0.9999964479908519, 0.9999991459943699),
        "DCGAN": (0.9999986032220316, 0.9999996522111371),
        "DiscoGAN": (0.9999979044826888, 0.9999995557038758),
        "GP-GAN": (0.9999977126388142, 0.9999994850515117),
        "MAGAN": (0.9999993150978908, 0.9999998522531706),
    },
    "ideal": {
        "3D-GAN": (9.378192824042289, 16.517630730754362),
        "ArtGAN": (4.538265018265018, 11.15493289810595),
        "DCGAN": (5.120830587501514, 12.145940940233249),
        "DiscoGAN": (3.4395692683231545, 9.582759131761016),
        "GP-GAN": (4.695954800317945, 12.322124297153934),
        "MAGAN": (2.958709983593652, 8.1004193059745),
    },
}

#: The golden regression test's tolerance: floating-point summation order only.
RELATIVE_TOLERANCE = 1e-12


def expected_pairs():
    """accelerator -> model -> (speedup, energy reduction) every op must match."""
    return {"ganax": dict(GOLDEN), **VARIANT_GOLDEN}
