//! Devices: the hardware (or emulator) behind every install.
//!
//! The honey app of §3.1 collects "device information (e.g., list of
//! other installed apps, device build, WiFi SSIDs, the /24 block of the
//! public IPv4 address, and signals to identify whether the device is
//! rooted)". Each of those observables has its ground truth on
//! [`Device`]; emulator detection works the way the paper's footnote
//! describes ("We look for strings (e.g., generic, genymotion) to
//! detect emulators").

use iiscope_netsim::{AsnKind, HostAddr};
use iiscope_playstore::InstallSignals;
use iiscope_types::fnv::fnv64;
use iiscope_types::{DeviceId, PackageName};

/// A simulated Android device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Device id.
    pub id: DeviceId,
    /// Network location (carries ASN kind and country).
    pub addr: HostAddr,
    /// Build fingerprint, e.g. `samsung/SM-G960F` or
    /// `generic/x86 sdk_gphone`.
    pub build: String,
    /// Rooted?
    pub rooted: bool,
    /// Connected WiFi network name, when on WiFi.
    pub wifi_ssid: Option<String>,
    /// Installed packages (beyond the app under test).
    pub installed: Vec<PackageName>,
}

impl Device {
    /// Emulator detection exactly as the honey app does it: substring
    /// scan of the build string.
    pub fn looks_like_emulator(&self) -> bool {
        const MARKERS: [&str; 4] = ["generic", "genymotion", "sdk_gphone", "emulator"];
        let lower = self.build.to_ascii_lowercase();
        MARKERS.iter().any(|m| lower.contains(m))
    }

    /// FNV-1a hash of the SSID — the honey app "only store\[s\] a hashed
    /// value" (§3.1 Ethics).
    pub fn ssid_hash(&self) -> Option<u64> {
        self.wifi_ssid.as_deref().map(|s| fnv64(s.as_bytes()))
    }

    /// The /24 of the public address as a compact key.
    pub fn block24_key(&self) -> u32 {
        u32::from(self.addr.ip) >> 8
    }

    /// The install-quality signals the Play Store would record for an
    /// install from this device.
    pub fn install_signals(&self) -> InstallSignals {
        InstallSignals {
            emulator: self.looks_like_emulator(),
            rooted: self.rooted,
            datacenter_asn: self.addr.asn_kind == AsnKind::Datacenter,
            block24: self.block24_key(),
        }
    }

    /// Whether any installed package carries a money-making keyword
    /// (§3.2's affiliate-app heuristic).
    pub fn has_money_keyword_app(&self) -> bool {
        self.installed.iter().any(PackageName::has_money_keyword)
    }

    /// Whether a specific package is installed.
    pub fn has_package(&self, pkg: &PackageName) -> bool {
        self.installed.contains(pkg)
    }
}

/// Realistic handset build strings for the generator.
pub const HANDSET_BUILDS: [&str; 12] = [
    "samsung/SM-G960F",
    "samsung/SM-A505F",
    "xiaomi/Redmi Note 7",
    "xiaomi/MI 9",
    "huawei/P30 Lite",
    "oppo/CPH1923",
    "vivo/1904",
    "motorola/moto g(7)",
    "google/Pixel 3a",
    "oneplus/GM1903",
    "lge/LM-X420",
    "sony/H8324",
];

/// Emulator build strings for the generator.
pub const EMULATOR_BUILDS: [&str; 3] = [
    "generic/x86 sdk_gphone",
    "genymotion/vbox86p",
    "generic_x86_64/emulator64",
];

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_netsim::AsnId;
    use iiscope_types::Country;
    use std::net::Ipv4Addr;

    fn device(build: &str, kind: AsnKind) -> Device {
        Device {
            id: DeviceId(1),
            addr: HostAddr {
                ip: Ipv4Addr::new(10, 1, 2, 3),
                asn: AsnId(1),
                asn_kind: kind,
                country: Country::Us,
            },
            build: build.into(),
            rooted: false,
            wifi_ssid: Some("HomeNet-5G".into()),
            installed: vec![],
        }
    }

    #[test]
    fn emulator_markers_detected() {
        for b in EMULATOR_BUILDS {
            assert!(device(b, AsnKind::Eyeball).looks_like_emulator(), "{b}");
        }
        for b in HANDSET_BUILDS {
            assert!(!device(b, AsnKind::Eyeball).looks_like_emulator(), "{b}");
        }
    }

    #[test]
    fn signals_reflect_device_state() {
        let mut d = device("samsung/SM-G960F", AsnKind::Datacenter);
        d.rooted = true;
        let s = d.install_signals();
        assert!(s.datacenter_asn);
        assert!(s.rooted);
        assert!(!s.emulator);
        assert_eq!(s.block24, u32::from(Ipv4Addr::new(10, 1, 2, 3)) >> 8);
    }

    #[test]
    fn ssid_hashing_stable_and_private() {
        let d = device("samsung/SM-G960F", AsnKind::Eyeball);
        let h1 = d.ssid_hash().unwrap();
        let h2 = d.ssid_hash().unwrap();
        assert_eq!(h1, h2);
        let mut d2 = d.clone();
        d2.wifi_ssid = Some("OtherNet".into());
        assert_ne!(d2.ssid_hash(), d.ssid_hash());
        let mut d3 = d;
        d3.wifi_ssid = None;
        assert_eq!(d3.ssid_hash(), None);
    }

    #[test]
    fn money_keyword_scan() {
        let mut d = device("samsung/SM-G960F", AsnKind::Eyeball);
        assert!(!d.has_money_keyword_app());
        d.installed.push(PackageName::new("eu.gcashapp").unwrap());
        assert!(d.has_money_keyword_app());
        assert!(d.has_package(&PackageName::new("eu.gcashapp").unwrap()));
        assert!(!d.has_package(&PackageName::new("com.none.x").unwrap()));
    }
}
