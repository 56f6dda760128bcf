// domlint fixture — MUST FIRE: hook-coverage. The manifest
// (fire_hooks.manifest) lists Stage2::mapPage as a guarded-state mutator,
// but the body carries no KVMARM_CHECK_ON / KVMARM_CHECK_PUBLISH hook.

namespace kvmarm::fixture {

struct Stage2 {
    int maps = 0;
    void mapPage(unsigned long ipa, unsigned long pa);
};

void
Stage2::mapPage(unsigned long ipa, unsigned long pa)
{
    maps += static_cast<int>(ipa != pa);
}

} // namespace kvmarm::fixture
